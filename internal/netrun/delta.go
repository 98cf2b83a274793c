package netrun

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The payload codecs. A word payload is count little-endian 32-bit
// words; the frame reader checks its length and hands the bytes over
// undecoded, and each consumer decodes the words in the pass that uses
// them (decodeWords, or its own loop where it scatters).
//
// Protocol v2's sorted-run payload codec: an ascending sequence of
// 32-bit values (keys of a sorted batch, or the nondecreasing ranks
// answering one) is stored as varint(count) followed by count varints —
// the first value, then successive deltas. Sorted batches make both
// directions monotone, so the deltas are small and unsigned by
// construction: uniform keys split over P partitions yield ~(range/P)/n
// average gaps, and rank deltas are bounded by the partition's key
// count over the batch — in the benchmark regime that is ~3 bytes per
// key outbound and ~1 byte per rank inbound versus fixed 4-byte words,
// on top of which the decoder's pass is strictly sequential.
//
// Protocol v5 adds a second, non-delta codec over the same varint
// primitive (appendVarRun/decodeVarRun) for payloads whose values are
// small but not monotone — the OpCounts replies.
//
// Hostile input rules (mirrored by FuzzDeltaPayload and
// FuzzVarRunPayload):
//   - a varint may span at most 5 bytes and must fit in 32 bits;
//   - the element count is validated against the remaining payload
//     length before any allocation (every element takes >= 1 byte), so
//     a forged count can never force an allocation larger than the
//     frame that carried it — the same guard dcindex.ReadKeys applies
//     to its chunked key reader;
//   - the running sum must stay within 32 bits;
//   - the payload must be consumed exactly (no trailing bytes).
//
// The delta codec carries MultiGet keys, scans, top-k runs, snapshots
// and loads (and an older client's sorted lookups), so its two loops are
// unrolled by byte position rather than built from the one-varint
// primitives: one predictable branch per byte, one bounds check per
// element. (A branch-free decoder — an eight-byte
// load, the stop bits counted, the payload bits compacted — measured no
// faster: where the next varint starts depends on the load, and a
// predicted branch hides exactly that.) The rules are enforced in place:
// the decoder reads an element through a five-byte view, so a sixth byte
// cannot be consumed, refuses a fifth byte that continues or carries more
// than four bits, and hands the last four bytes of a payload, where no
// such view fits, to uvarint32; the encoder writes through the same view
// into a buffer grown once to its worst case.

var (
	errDeltaTruncated = errors.New("netrun: delta payload truncated")
	errDeltaOverflow  = errors.New("netrun: delta payload overflows 32 bits")
	errDeltaTrailing  = errors.New("netrun: delta payload has trailing bytes")
)

// appendUvarint32 appends v in LEB128 (at most 5 bytes).
//
//dc:noalloc
func appendUvarint32(dst []byte, v uint32) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// uvarint32 decodes one varint from b, returning the value and the
// number of bytes consumed; n == 0 reports truncated, overlong (> 5
// bytes), or out-of-range (> 32 bits) input.
//
//dc:noalloc
func uvarint32(b []byte) (v uint32, n int) {
	var x uint64
	var s uint
	for i := 0; i < len(b) && i < 5; i++ {
		c := b[i]
		if c < 0x80 {
			x |= uint64(c) << s
			if x > 0xFFFFFFFF {
				return 0, 0
			}
			return uint32(x), i + 1
		}
		x |= uint64(c&0x7F) << s
		s += 7
	}
	return 0, 0
}

// decodeWords decodes a word payload into out (grown as needed) and
// returns the words: the node decodes request keys straight into its key
// scratch with it, ReadFrame a fresh Payload.
//
//dc:noalloc
func decodeWords[T ~uint32](raw []byte, out []T) []T {
	n := len(raw) / 4
	if cap(out) < n {
		out = make([]T, n)
	}
	out = out[:n]
	// The second condition always holds; stated, it lets the compiler
	// drop every bounds check from the loop.
	for i := 0; i < len(out) && len(raw) >= 4; i++ {
		out[i] = T(binary.LittleEndian.Uint32(raw))
		raw = raw[4:]
	}
	return out
}

// grow returns dst with room for need more bytes, grown at most once.
//
//dc:noalloc
func grow(dst []byte, need int) []byte {
	if need += len(dst); cap(dst) < need {
		grown := make([]byte, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	return dst
}

// appendDeltaRun appends the v2 encoding of the nondecreasing run vals
// to dst and returns it, narrowing each element to 32 bits as it is
// encoded (a node's ranks come from the kernel as ints). dst is grown
// once, to the run's worst case (a five-byte count and five bytes per
// element): a snapshot-sized run must not grow by doubling, and no caller
// has to pre-size. The caller guarantees monotonicity (sorted keys or
// their ranks); a run that is not would corrupt the stream, so it is
// checked and reported as an error.
//
//dc:noalloc
func appendDeltaRun[T ~uint32 | ~int](dst []byte, vals []T) ([]byte, error) {
	dst = grow(dst, 5+5*len(vals))
	dst = appendUvarint32(dst, uint32(len(vals)))
	buf, pos := dst[:cap(dst)], len(dst)
	prev := uint32(0)
	for i, x := range vals {
		v := uint32(x)
		if v < prev {
			return nil, fmt.Errorf("netrun: delta run not monotone at %d (%d after %d)", i, v, prev)
		}
		d := v - prev
		prev = v
		b := buf[pos : pos+5 : pos+5]
		switch {
		case d < 1<<7:
			b[0] = byte(d)
			pos++
		case d < 1<<14:
			b[0], b[1] = byte(d)|0x80, byte(d>>7)
			pos += 2
		case d < 1<<21:
			b[0], b[1], b[2] = byte(d)|0x80, byte(d>>7)|0x80, byte(d>>14)
			pos += 3
		case d < 1<<28:
			b[0], b[1], b[2], b[3] = byte(d)|0x80, byte(d>>7)|0x80, byte(d>>14)|0x80, byte(d>>21)
			pos += 4
		default:
			b[0], b[1], b[2], b[3], b[4] = byte(d)|0x80, byte(d>>7)|0x80, byte(d>>14)|0x80, byte(d>>21)|0x80, byte(d>>28)
			pos += 5
		}
	}
	return buf[:pos], nil
}

// deltaRunCount reads and validates the element count of a v2 payload:
// it must decode, and it must not exceed the remaining byte count
// (each element occupies at least one byte). Returns the count and the
// header size.
func deltaRunCount(payload []byte) (count, hdr int, err error) {
	c, n := uvarint32(payload)
	if n == 0 {
		return 0, 0, errDeltaTruncated
	}
	// Compare in uint64: on 32-bit platforms int(c) would wrap negative
	// for counts >= 2^31 and slip past the guard straight into a
	// negative make() — the same convention frameReader applies to its
	// length word.
	if uint64(c) > uint64(len(payload)-n) {
		return 0, 0, fmt.Errorf("netrun: delta count %d exceeds payload (%d bytes left): forged frame", c, len(payload)-n)
	}
	return int(c), n, nil
}

// appendVarRun appends the v5 plain-varint encoding of vals to dst:
// varint(count) followed by each value as its own varint, with no
// delta accumulation. It is the payload of OpCounts — per-range key
// counts and per-key multiplicities are small but not monotone, so the
// delta codec's ascending-run precondition does not hold, while the
// values themselves still compress well (a multiplicity is almost
// always 0 or 1, one byte against a fixed four). Like appendDeltaRun it
// narrows as it encodes and grows dst once, to the worst case.
//
//dc:noalloc
func appendVarRun[T ~uint32 | ~int](dst []byte, vals []T) []byte {
	dst = grow(dst, 5+5*len(vals))
	dst = appendUvarint32(dst, uint32(len(vals)))
	for _, v := range vals {
		dst = appendUvarint32(dst, uint32(v))
	}
	return dst
}

// decodeVarRun decodes a v5 plain-varint payload into out (grown as
// needed). The hostile-input rules match decodeDeltaRun exactly —
// count validated against the remaining bytes before any allocation,
// per-varint 5-byte/32-bit bounds, exact consumption — minus the
// monotonicity that plain values do not promise. Fuzzed by
// FuzzVarRunPayload.
//
//dc:noalloc
func decodeVarRun(payload []byte, out []uint32) ([]uint32, error) {
	count, hdr, err := deltaRunCount(payload)
	if err != nil {
		return nil, err
	}
	if cap(out) < count {
		out = make([]uint32, count)
	}
	out = out[:count]
	pos := hdr
	for i := 0; i < count; i++ {
		v, n := uvarint32(payload[pos:])
		if n == 0 {
			return nil, errDeltaTruncated
		}
		pos += n
		out[i] = v
	}
	if pos != len(payload) {
		return nil, errDeltaTrailing
	}
	return out, nil
}

// decodeDeltaRun decodes a full v2 payload into out (grown as needed,
// bounded by the deltaRunCount guard) and returns the values: the node
// recovers a sorted key batch with it straight into its key scratch, the
// client's read loop a reply's elements (checked whole before any reaches
// its destination).
//
//dc:noalloc
func decodeDeltaRun[T ~uint32](payload []byte, out []T) ([]T, error) {
	count, pos, err := deltaRunCount(payload)
	if err != nil {
		return nil, err
	}
	if cap(out) < count {
		out = make([]T, count)
	}
	out = out[:count]
	acc := uint64(0)
	for i := range out {
		var d uint64
		if pos+5 <= len(payload) {
			b := payload[pos : pos+5 : pos+5]
			d = uint64(b[0])
			pos++
			if d >= 0x80 {
				d = d&0x7F | uint64(b[1])<<7
				pos++
				if b[1] >= 0x80 {
					d = d&0x3FFF | uint64(b[2])<<14
					pos++
					if b[2] >= 0x80 {
						d = d&0x1FFFFF | uint64(b[3])<<21
						pos++
						if b[3] >= 0x80 {
							if b[4] > 0x0F {
								return nil, errDeltaTruncated
							}
							d = d&0xFFFFFFF | uint64(b[4])<<28
							pos++
						}
					}
				}
			}
		} else {
			v, n := uvarint32(payload[pos:])
			if n == 0 {
				return nil, errDeltaTruncated
			}
			d = uint64(v)
			pos += n
		}
		acc += d
		if acc > 0xFFFFFFFF {
			return nil, errDeltaOverflow
		}
		out[i] = T(acc)
	}
	if pos != len(payload) {
		return nil, errDeltaTrailing
	}
	return out, nil
}
