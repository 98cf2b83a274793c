package index

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/workload"
)

// buildWALImage assembles a valid in-memory log file for fuzz seeds:
// header for len(base) partitions, then batches in order, each tagged.
func buildWALImage(base []WALPos, batches []taggedBatch) []byte {
	n := walHeaderSize(len(base))
	data := make([]byte, n)
	binary.LittleEndian.PutUint32(data[0:4], walMagic)
	binary.LittleEndian.PutUint32(data[4:8], walVersion)
	binary.LittleEndian.PutUint64(data[8:16], 1)
	binary.LittleEndian.PutUint32(data[16:20], uint32(len(base)))
	for p, at := range base {
		binary.LittleEndian.PutUint64(data[20+16*p:], at.Gen)
		binary.LittleEndian.PutUint64(data[28+16*p:], at.Chain)
	}
	binary.LittleEndian.PutUint32(data[n-4:], crc32.Checksum(data[:n-4], crcTab))
	pos := append([]WALPos(nil), base...)
	for _, b := range batches {
		at := WALPos{pos[b.part].Gen + uint64(len(b.keys)), ChainFold(pos[b.part].Chain, b.keys)}
		pos[b.part] = at
		rec := make([]byte, walRecHeaderSize+4*len(b.keys)+walRecTrailerSize)
		binary.LittleEndian.PutUint32(rec[0:4], walRecMagic)
		binary.LittleEndian.PutUint32(rec[4:8], uint32(len(b.keys)))
		binary.LittleEndian.PutUint32(rec[8:12], uint32(b.part))
		binary.LittleEndian.PutUint64(rec[12:20], at.Gen)
		binary.LittleEndian.PutUint64(rec[20:28], at.Chain)
		for i, k := range b.keys {
			binary.LittleEndian.PutUint32(rec[walRecHeaderSize+4*i:], uint32(k))
		}
		crc := crc32.Checksum(rec[:len(rec)-walRecTrailerSize], crcTab)
		binary.LittleEndian.PutUint32(rec[len(rec)-walRecTrailerSize:], crc)
		data = append(data, rec...)
	}
	return data
}

// FuzzWALReplay feeds arbitrary byte-mangled log images to the replay
// path, read as a log of one partition and as a log of two. The contract
// under fuzzing: never panic, never allocate beyond the record-size
// bound, and whatever is recovered must be internally consistent — every
// record is tagged with a partition of the log, the generation/chain
// accounting re-derived per partition from the recovered keys matches
// what replay reported, and replaying a clean re-serialization of the
// recovered records reproduces them exactly (so a recovered index is
// always *some* crash-consistent prefix, never an invented history).
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add(buildWALImage(startPos(1), []taggedBatch{{0, []workload.Key{1, 2, 3}}, {0, []workload.Key{9}}}), false)
	f.Add(buildWALImage([]WALPos{{5, 0xdeadbeef}}, []taggedBatch{{0, []workload.Key{7, 7}}, {0, []workload.Key{0}}, {0, []workload.Key{1 << 31}}}), false)
	torn := buildWALImage(startPos(1), []taggedBatch{{0, []workload.Key{4, 5, 6}}})
	f.Add(torn[:len(torn)-3], false)
	// Tagged records of two partitions, interleaved; the same torn; and a
	// one-partition image read as a two-partition log.
	two := buildWALImage([]WALPos{{0, ChainStart()}, {12, 0xfeed}}, []taggedBatch{
		{0, []workload.Key{1, 2}}, {1, []workload.Key{900, 901, 901}}, {1, []workload.Key{902}}, {0, []workload.Key{3}},
	})
	f.Add(two, true)
	f.Add(two[:len(two)-5], true)
	f.Add(two, false)
	f.Add(v1WALHeader(), false)
	// A crash's hole: a zeroed sector with whole records after it.
	hole := buildWALImage(startPos(1), holeBatches()[:12])
	clear(hole[walSector : 2*walSector])
	f.Add(hole, false)
	f.Fuzz(func(t *testing.T, data []byte, shared bool) {
		parts := 1
		if shared {
			parts = 2
		}
		rep, err := ReplayWALBytes(data, parts, nil)
		if err != nil {
			// Refusal is always a legal outcome; it must only be deterministic.
			if _, err2 := ReplayWALBytes(data, parts, nil); err2 == nil {
				t.Fatal("replay nondeterministic: error then success on identical input")
			}
			return
		}
		if rep.Size > int64(len(data)) {
			t.Fatalf("valid prefix %d exceeds input %d", rep.Size, len(data))
		}
		if rep.Base == nil {
			if rep.Size != 0 || len(rep.Records) != 0 {
				t.Fatalf("torn header yet %d bytes and %d records recovered", rep.Size, len(rep.Records))
			}
			return
		}
		pos := append([]WALPos(nil), rep.Base...)
		var batches []taggedBatch
		for i, rec := range rep.Records {
			if rec.Part < 0 || rec.Part >= parts {
				t.Fatalf("record %d: partition %d of %d", i, rec.Part, parts)
			}
			at := WALPos{pos[rec.Part].Gen + uint64(len(rec.Keys)), ChainFold(pos[rec.Part].Chain, rec.Keys)}
			if (WALPos{rec.Seq, rec.Chain}) != at {
				t.Fatalf("record %d: reported (%d, %#x), re-derived %+v", i, rec.Seq, rec.Chain, at)
			}
			pos[rec.Part] = at
			batches = append(batches, taggedBatch{rec.Part, rec.Keys})
		}
		for p := range pos {
			if rep.Pos(p) != pos[p] {
				t.Fatalf("partition %d: final position %+v, re-derived %+v", p, rep.Pos(p), pos[p])
			}
		}
		// Round-trip: the recovered history must survive re-serialization.
		rep2, err := ReplayWALBytes(buildWALImage(rep.Base, batches), parts, rep.Base)
		if err != nil {
			t.Fatalf("re-serialized history refused: %v", err)
		}
		if rep2.Torn || !sameRecords(rep2.Records, rep.Records) {
			t.Fatalf("round-trip lost records: %d -> %d (torn=%v)", len(rep.Records), len(rep2.Records), rep2.Torn)
		}
	})
}
