package netrun

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func TestUvarint32RoundTrip(t *testing.T) {
	vals := []uint32{0, 1, 0x7F, 0x80, 0x3FFF, 0x4000, 0x1FFFFF, 0x200000, 0xFFFFFFF, 0x10000000, 0xFFFFFFFF}
	for _, v := range vals {
		b := appendUvarint32(nil, v)
		if len(b) > 5 {
			t.Fatalf("%d encoded to %d bytes", v, len(b))
		}
		got, n := uvarint32(b)
		if n != len(b) || got != v {
			t.Fatalf("uvarint32(%x) = %d,%d want %d,%d", b, got, n, v, len(b))
		}
	}
}

func TestUvarint32RejectsHostileInput(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"truncated":    {0x80},
		"truncated4":   {0x80, 0x80, 0x80, 0x80},
		"overlong":     {0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, // 6 bytes
		"out-of-range": {0xFF, 0xFF, 0xFF, 0xFF, 0x7F},       // > 2^32
	}
	for name, b := range cases {
		if v, n := uvarint32(b); n != 0 {
			t.Fatalf("%s: accepted as %d (%d bytes)", name, v, n)
		}
	}
}

// refAppendDeltaRun and refDecodeDeltaRun are the delta codec as it was
// before its loops were unrolled — one appendUvarint32 / uvarint32 call
// per element — kept as the oracle the unrolled form is held to: the
// same bytes out, the same accept or reject and the same values in.
func refAppendDeltaRun(dst []byte, vals []uint32) []byte {
	dst = appendUvarint32(dst, uint32(len(vals)))
	prev := uint32(0)
	for _, v := range vals {
		dst = appendUvarint32(dst, v-prev)
		prev = v
	}
	return dst
}

func refDecodeDeltaRun(payload []byte) ([]uint32, error) {
	count, hdr, err := deltaRunCount(payload)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, count)
	pos := hdr
	acc := uint64(0)
	for i := 0; i < count; i++ {
		d, n := uvarint32(payload[pos:])
		if n == 0 {
			return nil, errDeltaTruncated
		}
		pos += n
		acc += uint64(d)
		if acc > 0xFFFFFFFF {
			return nil, errDeltaOverflow
		}
		out[i] = uint32(acc)
	}
	if pos != len(payload) {
		return nil, errDeltaTrailing
	}
	return out, nil
}

// The encoder must emit the reference's bytes at every varint length
// boundary, for the two frame shapes of a sorted lookup at benchmark
// scale (key gaps around 2^16, rank gaps around 5), and appended after
// bytes already in dst.
func TestAppendDeltaRunMatchesReference(t *testing.T) {
	runs := map[string][]uint32{"empty": {}, "zeros": {0, 0, 0}, "max": {0xFFFFFFFF}, "zero-then-max": {0, 0xFFFFFFFF, 0xFFFFFFFF}}
	var edges []uint32
	acc := uint32(0)
	for _, shift := range []uint{7, 14, 21, 28} {
		for _, d := range []uint32{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			runs[fmt.Sprintf("delta-%d", d)] = []uint32{5, 5 + d}
			if acc+d > acc {
				acc += d
				edges = append(edges, acc)
			}
		}
	}
	runs["every-boundary"] = edges
	r := workload.NewRNG(3)
	keys, ranks := make([]uint32, 32768), make([]uint32, 32768)
	k, rank := uint32(0), uint32(163840)
	for i := range keys {
		k += uint32(r.Intn(1 << 17))
		rank += uint32(r.Intn(11))
		keys[i], ranks[i] = k, rank
	}
	runs["key-frame"], runs["rank-frame"] = keys, ranks
	for name, vals := range runs {
		for _, prefix := range [][]byte{nil, []byte("thirteen-byte")} {
			got, err := appendDeltaRun(slices.Clone(prefix), vals)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want := refAppendDeltaRun(slices.Clone(prefix), vals); !bytes.Equal(got, want) {
				t.Errorf("%s after %d bytes: encoded %x, reference %x", name, len(prefix), got, want)
			}
		}
	}
}

// sameDecode holds the unrolled decoder to the reference on one payload:
// both accept or both refuse with the same error, and accepted values are
// equal.
func sameDecode(t *testing.T, payload []byte) ([]uint32, error) {
	t.Helper()
	got, err := decodeDeltaRun[uint32](payload, nil)
	want, refErr := refDecodeDeltaRun(payload)
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("payload %x: decode error %v, reference %v", payload, err, refErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("payload %x: decoded %v, reference %v", payload, got, want)
	}
	return got, err
}

// Every hostile shape at every position of the five-byte view: the
// payload's last varints are decoded by the loop form and the ones
// before by the unrolled form, so each case is tried with 0 to 6 one-byte
// elements after it.
func TestDecodeDeltaRunMatchesReference(t *testing.T) {
	cases := map[string][]byte{
		"one-byte":          {0x05},
		"two-bytes":         {0x85, 0x01},
		"five-bytes-max":    {0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"padded-zero":       {0x80, 0x80, 0x80, 0x80, 0x00},
		"33-bits":           {0xFF, 0xFF, 0xFF, 0xFF, 0x1F},
		"fifth-continues":   {0x80, 0x80, 0x80, 0x80, 0x80},
		"six-bytes":         {0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"truncated":         {0x80},
		"sum-overflow":      {0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x01},
		"sum-overflow-late": {0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01},
	}
	for name, elems := range cases {
		for pad := 0; pad <= 6; pad++ {
			for count := 0; count <= len(elems)+pad+1; count++ {
				payload := append([]byte{byte(count)}, elems...)
				payload = append(payload, make([]byte, pad)...)
				t.Run(fmt.Sprintf("%s/pad%d/count%d", name, pad, count), func(t *testing.T) { sameDecode(t, payload) })
			}
		}
	}
}

func TestDeltaRunRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		vals := append([]uint32(nil), raw...)
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		enc, err := appendDeltaRun(nil, vals)
		if err != nil {
			return false
		}
		dec, err := decodeDeltaRun[uint32](enc, nil)
		if err != nil || len(dec) != len(vals) {
			return false
		}
		for i := range vals {
			if dec[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendDeltaRunRejectsNonMonotone(t *testing.T) {
	if _, err := appendDeltaRun(nil, []uint32{5, 3}); err == nil {
		t.Fatal("non-monotone run encoded")
	}
}

func TestDecodeDeltaRunTruncations(t *testing.T) {
	enc, err := appendDeltaRun(nil, []uint32{10, 200, 300000, 300000, 0xFFFFFFFF})
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix must be rejected, never panic.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeDeltaRun[uint32](enc[:cut], nil); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage must be rejected too (exact-consumption rule).
	if _, err := decodeDeltaRun[uint32](append(append([]byte(nil), enc...), 0x00), nil); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// A forged element count must be rejected before any allocation larger
// than the payload itself — the ReadKeys-style chunk guard.
func TestDecodeDeltaRunHostileCount(t *testing.T) {
	payload := appendUvarint32(nil, 0xFFFFFFFF) // claims 4G elements
	payload = append(payload, 1, 2, 3)
	if _, err := decodeDeltaRun[uint32](payload, nil); err == nil || !strings.Contains(err.Error(), "forged") {
		t.Fatalf("err = %v, want forged-frame rejection", err)
	}
	// Sum overflow past 32 bits: first element 0xFFFFFFFF, delta 1.
	over := appendUvarint32(nil, 2)
	over = appendUvarint32(over, 0xFFFFFFFF)
	over = appendUvarint32(over, 1)
	if _, err := decodeDeltaRun[uint32](over, nil); err != errDeltaOverflow {
		t.Fatalf("err = %v, want overflow", err)
	}
}

// FuzzDeltaPayload drives the decoder with arbitrary bytes: it must
// never panic, never allocate beyond the guarded bound, agree with the
// reference decoder on accept or reject and on every value, and on
// success re-encode — to the reference encoder's bytes — to a stream that
// decodes to the same values.
func FuzzDeltaPayload(f *testing.F) {
	seed1, _ := appendDeltaRun(nil, []uint32{1, 2, 3, 100000, 0xFFFFFFFF})
	seed2, _ := appendDeltaRun(nil, []uint32{})
	seed3, _ := appendDeltaRun(nil, []uint32{0, 0, 0, 0})
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed3)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F})       // hostile count
	f.Add([]byte{0x02, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // overflowing delta
	f.Add(bytes.Repeat([]byte{0x80}, 64))             // unterminated varints
	f.Fuzz(func(t *testing.T, payload []byte) {
		vals, err := sameDecode(t, payload)
		if err != nil {
			return
		}
		// The count guard: a successful decode can never have produced
		// more elements than payload bytes.
		if len(vals) > len(payload) {
			t.Fatalf("%d elements out of %d bytes", len(vals), len(payload))
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1] {
				t.Fatalf("decoded run not monotone at %d", i)
			}
		}
		enc, err := appendDeltaRun(nil, vals)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if want := refAppendDeltaRun(nil, vals); !bytes.Equal(enc, want) {
			t.Fatalf("re-encoded %x, reference %x", enc, want)
		}
		back, err := decodeDeltaRun[uint32](enc, nil)
		if err != nil || len(back) != len(vals) {
			t.Fatalf("re-decode: %v (%d vals)", err, len(back))
		}
		for i := range vals {
			if back[i] != vals[i] {
				t.Fatalf("round trip diverged at %d", i)
			}
		}
	})
}

func TestVarRunRoundTrip(t *testing.T) {
	f := func(vals []uint32) bool {
		enc := appendVarRun(nil, vals)
		dec, err := decodeVarRun(enc, nil)
		if err != nil || len(dec) != len(vals) {
			return false
		}
		for i := range vals {
			if dec[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Non-monotone values are the codec's reason to exist: counts jump
	// both directions.
	enc := appendVarRun(nil, []uint32{5, 0, 0xFFFFFFFF, 1, 5})
	dec, err := decodeVarRun(enc, nil)
	if err != nil || len(dec) != 5 || dec[2] != 0xFFFFFFFF || dec[4] != 5 {
		t.Fatalf("non-monotone round trip: %v %v", dec, err)
	}
}

func TestDecodeVarRunTruncations(t *testing.T) {
	enc := appendVarRun(nil, []uint32{10, 0, 300000, 7, 0xFFFFFFFF})
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeVarRun(enc[:cut], nil); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := decodeVarRun(append(append([]byte(nil), enc...), 0x00), nil); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecodeVarRunHostileCount(t *testing.T) {
	payload := appendUvarint32(nil, 0xFFFFFFFF) // claims 4G elements
	payload = append(payload, 1, 2, 3)
	if _, err := decodeVarRun(payload, nil); err == nil || !strings.Contains(err.Error(), "forged") {
		t.Fatalf("err = %v, want forged-frame rejection", err)
	}
}

// FuzzVarRunPayload drives the plain-varint decoder with arbitrary
// bytes: no panic, allocation bounded by the count guard, and every
// successful decode must re-encode/re-decode to the same values.
func FuzzVarRunPayload(f *testing.F) {
	f.Add(appendVarRun(nil, []uint32{1, 0, 3, 100000, 0xFFFFFFFF}))
	f.Add(appendVarRun(nil, []uint32{}))
	f.Add(appendVarRun(nil, []uint32{0, 0, 0, 0}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F})       // hostile count
	f.Add([]byte{0x02, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // out-of-range varint
	f.Add(bytes.Repeat([]byte{0x80}, 64))             // unterminated varints
	f.Fuzz(func(t *testing.T, payload []byte) {
		vals, err := decodeVarRun(payload, nil)
		if err != nil {
			return
		}
		if len(vals) > len(payload) {
			t.Fatalf("%d elements out of %d bytes", len(vals), len(payload))
		}
		enc := appendVarRun(nil, vals)
		back, err := decodeVarRun(enc, nil)
		if err != nil || len(back) != len(vals) {
			t.Fatalf("re-decode: %v (%d vals)", err, len(back))
		}
		for i := range vals {
			if back[i] != vals[i] {
				t.Fatalf("round trip diverged at %d", i)
			}
		}
	})
}

// An ascending key run — the sorted batch a lookup sends — must
// round-trip through the connection's reusable writer and reader as
// words, its order and duplicates intact.
func TestSortedFrameRoundTrip(t *testing.T) {
	keys := []uint32{3, 3, 70, 500, 1 << 30, 0xFFFFFFFF}
	var buf bytes.Buffer
	var fw frameWriter
	var fr frameReader
	if err := fw.writeTo(&buf, Frame{Op: OpLookup, ReqID: 42, Payload: keys}); err != nil {
		t.Fatal(err)
	}
	f, err := fr.readFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Op != OpLookup || f.ReqID != 42 {
		t.Fatalf("frame header mismatch: %+v", f)
	}
	if got := decodeWords[uint32](f.Raw, nil); !slices.Equal(got, keys) {
		t.Fatalf("keys = %v, want %v", got, keys)
	}
}

// encodeRun (the send path's fused encoder) must produce exactly a
// header plus the run's little-endian words, narrowing int ranks as it
// goes, and the reader must hand the same words back.
func TestEncodeDeltaKeysMatchesFrame(t *testing.T) {
	keys := []int{1, 2, 2, 900, 1 << 20}
	var fw frameWriter
	var fr frameReader
	buf, err := encodeRun(&fw, OpRanks, 77, keys)
	if err != nil {
		t.Fatal(err)
	}
	want := binary.LittleEndian.AppendUint32(nil, Magic)
	want = append(want, OpRanks)
	want = binary.LittleEndian.AppendUint32(want, 77)
	want = binary.LittleEndian.AppendUint32(want, uint32(len(keys)))
	for _, k := range keys {
		want = binary.LittleEndian.AppendUint32(want, uint32(k))
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("encodeRun bytes = %x, want %x", buf, want)
	}
	f, err := fr.readFrom(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if f.Op != OpRanks || f.ReqID != 77 {
		t.Fatalf("header mismatch: %+v", f)
	}
	for i, k := range decodeWords[uint32](f.Raw, nil) {
		if int(k) != keys[i] {
			t.Fatalf("key[%d] = %d, want %d", i, k, keys[i])
		}
	}
}

// The size the delta coding buys on the benchmark-shaped workload:
// sorted uniform keys must shrink meaningfully, and their (dense) rank
// runs must shrink to about a byte per element.
func TestDeltaCompressionRatio(t *testing.T) {
	qs := workload.UniformQueries(16384, 1)
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	keys := make([]uint32, len(qs))
	for i, q := range qs {
		keys[i] = uint32(q)
	}
	enc, err := appendDeltaRun(nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(enc)) / float64(4*len(keys)); ratio > 0.80 {
		t.Errorf("sorted uniform keys: %d -> %d bytes (%.2fx of fixed), want <= 0.80x", 4*len(keys), len(enc), ratio)
	}
	// Ranks over a 40960-key partition: dense, ~1 byte each.
	ranks := make([]uint32, len(keys))
	for i := range ranks {
		ranks[i] = uint32(i * 40960 / len(ranks))
	}
	encR, err := appendDeltaRun(nil, ranks)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(encR)) / float64(4*len(ranks)); ratio > 0.35 {
		t.Errorf("dense ranks: %d -> %d bytes (%.2fx of fixed), want <= 0.35x", 4*len(ranks), len(encR), ratio)
	}
}
