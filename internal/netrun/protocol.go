// Package netrun runs the distributed in-cache index over real sockets:
// slave nodes serve index partitions over TCP, and a master-side client
// batches queries to them — the paper's MPI deployment translated to a
// stdlib-only wire protocol. The in-process runtime (internal/core)
// remains the fast path for a single host; netrun is for actually
// spreading the partitions across machines so that each node's share
// fits in its cache.
//
// Wire protocol (little-endian, length-delimited frames):
//
//	frame := magic(u32) op(u8) reqID(u32) count(u32) payload
//
// For the v1 ops (OpHello..OpErr) the payload is count 32-bit words: a
// lookup request's payload is count keys and the response's payload is
// count ranks (as uint32), in request order. For the v2 sorted-run ops
// (OpLookupSorted, OpRanksDelta) count is a byte length and the payload
// is a delta+varint-coded ascending run: varint(elements), then the
// first value and successive deltas as varints (see delta.go). Sorted
// batches make both keys and ranks monotone, which is what makes the
// deltas small; a sorted uniform workload's frames shrink roughly 4x on
// the rank direction and 25-45% on the key direction versus v1.
//
// Protocol v3 adds online updates. OpInsert carries count keys (a word
// payload, any order) to be added to the node's partition; the node
// buffers them in its delta layer and answers OpInsertAck whose single
// payload word echoes the applied count. OpSnapshot (no payload) asks a
// node for its full current key set, answered by OpSnapshotData as a
// delta+varint byte payload (the set is sorted, so the same codec the
// sorted lookups use applies); OpLoad pushes such a payload at a node,
// atomically replacing its key set, and is acknowledged by OpLoadAck
// with the loaded count. Snapshot/load exist for replica catch-up: a
// replica rejoining a group that has absorbed writes is first loaded
// from a healthy sibling's snapshot, then readmitted.
//
// Protocol v4 adds durable-node catch-up. A node backed by a
// write-ahead log carries a (generation, chain) position: the
// generation counts every key it logged since its baseline and the
// chain is an order-sensitive fold over them, so two replicas hold the
// same insert history iff their positions match. OpSnapshotSince asks a
// sibling for the insert tail after a rejoiner's position (payload:
// four words, generation then chain, low word first); the sibling
// answers OpSnapshotDelta whose payload is [kind, gen(2 words),
// chain(2 words), keys...] — kind 0 is a delta (keys in append order),
// kind 1 a full snapshot (sorted keys), which the sibling falls back to
// when it compacted past the requested generation, the chains diverge,
// or the delta cannot fit a frame. OpLoadAt pushes the same payload
// shape at the rejoiner: a delta is verified against the advertised
// position before anything is applied (a mismatch is refused with
// OpErr — the histories diverged and only a full snapshot reconciles),
// a full load replaces the node's state at the carried position. Both
// are acknowledged by OpLoadAck counting the applied keys.
//
// Protocol v5 generalizes the query surface beyond ranks: four
// op-tagged read frames, all served from the node's update layer so
// they see delta-buffered inserts coherently with the frozen base.
// OpCountRange carries pairs of inclusive range endpoints (word
// payload: lo1,hi1,lo2,hi2,...) and is answered by OpCounts, each
// range's local key count as a varint run (counts are not monotone, so
// the plain-varint codec applies, not the delta codec). OpScanRange
// carries [lo, hi, limit] (limit 0 = unlimited) and OpTopK carries
// [k]; both are answered by OpKeysDelta, an ascending delta+varint key
// run (a top-k reply is ascending on the wire — the client reads it
// backward). OpMultiGet carries an ascending delta-coded key run and
// is answered by OpCounts with each key's multiplicity. Because every
// partition holds a disjoint key sub-range, the client composes exact
// global answers from local ones: counts sum, scans concatenate in
// partition order, top-k reads partitions from the highest down, and a
// multiplicity never crosses a partition boundary.
//
// Protocol v6 adds live membership — the operations plane's reshape
// verbs, each acknowledged by OpMembAck whose single payload word is
// the node's live key count after the operation. OpAddReplica assigns
// a partition identity to an unassigned node (one started with the
// full key file but no partition, dcnode -join): its four payload words
// are [rankBase, baseN, loKey, hiKey], naming the slice [rankBase,
// rankBase+baseN) of the node's sorted key universe and the bounds the
// client expects there; a node that already holds an identity accepts
// the op only when it matches (an idempotent confirm). OpDrainReplica
// (no payload) quiesces a node before the client detaches it from its
// replica group. OpSplitPartition carries
// six words [newRankBase, newBaseN, loKey, hiKey, splitKey, keepHi]:
// the node filters its live key set at splitKey (keepHi 0 keeps keys
// <= splitKey, 1 keeps the rest), atomically swaps its advertised
// identity to the named half, and keeps serving — the client splits a
// hot partition by sending each current replica its half, then
// re-dialing the epoch against the doubled routing table. All three
// flow only on v6-negotiated connections while the client holds its
// membership pause (no reads or writes in flight), which is what makes
// the node-side identity swap safe.
//
// Version negotiation rides the hello exchange, so mixed-version
// clusters interoperate frame-for-frame:
//
//   - The client sends OpHello with its highest supported version in
//     the reqID field. A v1 client leaves it zero.
//   - A v1 node replies OpHelloAck with the 4-word payload
//     [rankBase, keyCount, loKey, hiKey] — its only form.
//   - A newer node replies the same 4 words to a v1 client, and appends
//     a 5th word, min(clientVersion, ProtoVersion), to a v2+ client.
//   - The client treats a 4-word ack as version 1; a 5-word ack carries
//     the negotiated version. Versioning is per connection, so a
//     replica group may mix versions and failover re-encodes for the
//     new connection.
//   - On a v3-negotiated connection an updatable node appends a 6th
//     word: its LIVE key count. live minus baseline is the insert
//     count the node has absorbed, which a freshly dialing client
//     seeds its rank-base correction counters from — ranks stay
//     globally consistent against nodes a previous client wrote to.
//   - On a v4-negotiated connection a DURABLE node appends words 7-8:
//     its chain (low word first). An 8-word ack therefore identifies a
//     durable peer (generation = live minus baseline), and the client
//     prefers the delta catch-up on rejoin when both ends advertise
//     one; a 6-word v4 ack is an updatable-but-not-durable node, served
//     by the v3 full-snapshot flow.
//
// The full negotiation table (rows: node's highest version; columns:
// client's; cells: negotiated version = the ops that may flow):
//
//	          client v1   client v2   client v3   client v4   client v5   client v6
//	node v1       1           1           1           1           1           1      lookups only
//	node v2       1           2           2           2           2           2      + delta-coded sorted runs
//	node v3       1           2           3           3           3           3      + inserts, snapshot/load
//	node v4       1           2           3           4           4           4      + positioned catch-up
//	node v5       1           2           3           4           5           5      + range/scan/top-k/multiget
//	node v6       1           2           3           4           5           6      + live membership
//
// Op x minimum version, for every request op a client may send. This
// matrix is a rendering of the op table (optable.go), which is the
// definition; a test holds the two equal:
//
//	v1  OpHello, OpLookup
//	v2  OpLookupSorted
//	v3  OpInsert, OpSnapshot, OpLoad
//	v4  OpSnapshotSince, OpLoadAt
//	v5  OpCountRange, OpScanRange, OpTopK, OpMultiGet
//	v6  OpAddReplica, OpDrainReplica, OpSplitPartition
//
// A v5 client never sends a v5 op on a connection that negotiated less
// (dispatch and failover both re-check the member's version), so
// pre-v5 replicas keep serving ranks — they are excluded from the new
// ops only, never from lookups.
//
// Writes only ever flow on v3-negotiated connections: v1/v2 nodes
// simply never receive OpInsert (the client skips them during write
// fan-out), and once a client has written to a partition it stops
// routing lookups to that partition's pre-v3 replicas, because they can
// no longer prove they hold the full key set.
//
// A hello exchange also carries the node's partition metadata so the
// client can verify its routing table against what the node actually
// serves. The advertised identity is the node's *baseline* (its state
// at construction): online inserts deliberately do not change it, so a
// rejoining replica still verifies as the partition it was launched as.
//
// reqID multiplexes concurrent requests over one connection: the master
// pipelines any number of request frames and the reply carries the
// request's id back, so a per-connection read loop can demultiplex
// reply frames to the issuing callers in any order. Nodes today reply
// in request order; the client does not rely on it.
package netrun

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Magic identifies protocol frames; a mismatch means the peer is not a
// netrun node (or the stream desynchronized) and the connection dies.
const Magic uint32 = 0xDC1D_2005

// Protocol versions. ProtoVersion is the highest this build speaks;
// the hello exchange negotiates min(client, node) per connection.
const (
	ProtoV1 = 1
	ProtoV2 = 2
	ProtoV3 = 3
	ProtoV4 = 4
	ProtoV5 = 5
	ProtoV6 = 6

	ProtoVersion = ProtoV6
)

// Op codes.
const (
	// OpHello is sent by the client on connect, with the client's
	// highest protocol version in the reqID field (0 and 1 both mean
	// v1); the node answers with OpHelloAck whose payload is
	// [rankBase, keyCount, loKey, hiKey] plus, for a v2 client, a 5th
	// word carrying the negotiated version.
	OpHello uint8 = 1
	// OpHelloAck is the node's hello response.
	OpHelloAck uint8 = 2
	// OpLookup carries keys; the node answers OpRanks with ranks.
	OpLookup uint8 = 3
	// OpRanks is the node's lookup response.
	OpRanks uint8 = 4
	// OpErr refuses a request; payload[0] is the refused op. How far the
	// refusal reaches is the request row's onErr column: answering a
	// lookup or an insert it condemns the connection, answering a v3+
	// catch-up, query or membership op it declines that one request and
	// the node keeps serving.
	OpErr uint8 = 5
	// OpLookupSorted (v2) carries an ascending key run, delta+varint
	// coded (byte payload); the node answers OpRanksDelta.
	OpLookupSorted uint8 = 6
	// OpRanksDelta (v2) is the sorted lookup's response: the
	// nondecreasing ranks, delta+varint coded (byte payload).
	OpRanksDelta uint8 = 7
	// OpInsert (v3) carries count keys (word payload, any order) to add
	// to the node's partition; the node answers OpInsertAck.
	OpInsert uint8 = 8
	// OpInsertAck (v3) acknowledges an insert; payload[0] is the
	// applied key count.
	OpInsertAck uint8 = 9
	// OpSnapshot (v3, no payload) requests the node's full current key
	// set; the node answers OpSnapshotData.
	OpSnapshot uint8 = 10
	// OpSnapshotData (v3) is the snapshot response: the sorted key set,
	// delta+varint coded (byte payload).
	OpSnapshotData uint8 = 11
	// OpLoad (v3) pushes a full sorted key set (delta+varint byte
	// payload) that atomically replaces the node's current set — the
	// replica catch-up path. The node answers OpLoadAck.
	OpLoad uint8 = 12
	// OpLoadAck (v3) acknowledges a load; payload[0] is the loaded key
	// count.
	OpLoadAck uint8 = 13
	// OpSnapshotSince (v4) asks a durable node for the insert tail after
	// a position: payload is 4 words, generation then chain, low word
	// first. Answered by OpSnapshotDelta.
	OpSnapshotSince uint8 = 14
	// OpSnapshotDelta (v4) is the positioned-catch-up payload: [kind,
	// gen(2), chain(2), keys...]. kind 0 = delta tail in append order,
	// kind 1 = full sorted snapshot; gen/chain are the position the
	// payload advances its consumer to.
	OpSnapshotDelta uint8 = 15
	// OpLoadAt (v4) pushes an OpSnapshotDelta-shaped payload at a
	// durable node; acknowledged by OpLoadAck with the applied key
	// count, or refused with OpErr when a delta does not reproduce the
	// carried position (divergent histories).
	OpLoadAt uint8 = 16
	// OpCountRange (v5) carries inclusive range endpoint pairs (word
	// payload: lo1,hi1,lo2,hi2,...); the node answers OpCounts with
	// each pair's local key count.
	OpCountRange uint8 = 17
	// OpScanRange (v5) carries [lo, hi, limit] (word payload; limit 0
	// means unlimited); the node answers OpKeysDelta with its keys in
	// [lo, hi], ascending, at most limit of them.
	OpScanRange uint8 = 18
	// OpTopK (v5) carries [k] (word payload); the node answers
	// OpKeysDelta with its k largest keys — ascending on the wire, the
	// client reads the run backward.
	OpTopK uint8 = 19
	// OpMultiGet (v5) carries an ascending key run, delta+varint coded
	// (byte payload); the node answers OpCounts with each key's
	// multiplicity.
	OpMultiGet uint8 = 20
	// OpKeysDelta (v5) answers OpScanRange and OpTopK: an ascending key
	// run, delta+varint coded (byte payload).
	OpKeysDelta uint8 = 21
	// OpCounts (v5) answers OpCountRange and OpMultiGet: one count per
	// request element as a plain varint run (byte payload; counts are
	// not monotone, so no delta coding — see appendVarRun).
	OpCounts uint8 = 22
	// OpAddReplica (v6) assigns a partition identity to a joinable
	// node: payload [rankBase, baseN, loKey, hiKey] names the slice of
	// the node's key universe it is to serve and the key bounds the
	// client expects there. A node already holding an identity accepts
	// only a matching assignment. Answered by OpMembAck.
	OpAddReplica uint8 = 23
	// OpDrainReplica (v6, no payload) quiesces a node ahead of the
	// client detaching it from its replica group. Answered by
	// OpMembAck.
	OpDrainReplica uint8 = 24
	// OpSplitPartition (v6) retargets a node at one half of its split
	// partition: payload [newRankBase, newBaseN, loKey, hiKey,
	// splitKey, keepHi]. The node filters its live keys at splitKey
	// (keepHi selects the side), swaps its identity to the named half,
	// and answers OpMembAck.
	OpSplitPartition uint8 = 25
	// OpMembAck (v6) acknowledges a membership op; payload[0] is the
	// node's live key count after the operation.
	OpMembAck uint8 = 26
)

// OpSnapshotDelta/OpLoadAt payload layout: a 5-word header — kind,
// generation (2 words, low first), chain (2 words, low first) — then
// the keys.
const (
	snapDeltaHeader = 5
	snapKindDelta   = 0 // keys are the insert tail, append order
	snapKindFull    = 1 // keys are the full sorted set
)

// MaxFrameWords bounds a v1 frame payload (16M words = 64 MB) so a
// corrupt length cannot force an absurd allocation. MaxFrameBytes is
// the byte-payload equivalent for v2 frames: the same 16M elements at
// the 5-byte varint worst case.
const (
	MaxFrameWords = 16 << 20
	MaxFrameBytes = 5 * MaxFrameWords
)

// Frame is one decoded protocol frame: word ops carry Payload, byte
// ops (the op table's encDelta and encVarint codecs) carry Raw.
type Frame struct {
	Op      uint8
	ReqID   uint32
	Payload []uint32
	Raw     []byte
}

// WriteFrame encodes f to w. The payload aliasing is safe: the data is
// fully written before return. Allocates a scratch buffer per call; the
// hot paths use a reusable frameWriter instead.
func WriteFrame(w io.Writer, f Frame) error {
	var fw frameWriter
	return fw.writeTo(w, f)
}

// ReadFrame decodes one frame from r, allocating a fresh payload; the
// hot paths use a reusable frameReader instead.
func ReadFrame(r io.Reader) (Frame, error) {
	var fr frameReader
	f, err := fr.readFrom(r)
	if err != nil {
		return Frame{}, err
	}
	// Detach the payload from the reader's scratch.
	f.Payload = append([]uint32(nil), f.Payload...)
	f.Raw = append([]byte(nil), f.Raw...)
	return f, nil
}

// frameWriter encodes frames, reusing one scratch buffer across calls so
// the steady state allocates nothing. Not safe for concurrent use.
type frameWriter struct {
	buf []byte
}

// encode serializes f into the writer's scratch buffer and returns it
// (valid until the next encode). Splitting encoding from the socket
// write lets a caller stop referencing f.Payload before any blocking
// I/O starts. Byte ops (v2) take their payload from f.Raw.
//
//dc:noalloc
func (fw *frameWriter) encode(f Frame) ([]byte, error) {
	if wire[f.Op].enc != encWords {
		if len(f.Raw) > MaxFrameBytes {
			return nil, fmt.Errorf("netrun: frame payload %d bytes exceeds limit", len(f.Raw))
		}
		need := 13 + len(f.Raw)
		if cap(fw.buf) < need {
			fw.buf = make([]byte, need)
		}
		buf := fw.buf[:need]
		fw.putHeader(buf, f.Op, f.ReqID, uint32(len(f.Raw)))
		copy(buf[13:], f.Raw)
		return buf, nil
	}
	if len(f.Payload) > MaxFrameWords {
		return nil, fmt.Errorf("netrun: frame payload %d words exceeds limit", len(f.Payload))
	}
	need := 13 + 4*len(f.Payload)
	if cap(fw.buf) < need {
		fw.buf = make([]byte, need)
	}
	buf := fw.buf[:need]
	fw.putHeader(buf, f.Op, f.ReqID, uint32(len(f.Payload)))
	for i, v := range f.Payload {
		binary.LittleEndian.PutUint32(buf[13+4*i:], v)
	}
	return buf, nil
}

//dc:noalloc
func (fw *frameWriter) putHeader(buf []byte, op uint8, reqID, count uint32) {
	binary.LittleEndian.PutUint32(buf[0:4], Magic)
	buf[4] = op
	binary.LittleEndian.PutUint32(buf[5:9], reqID)
	binary.LittleEndian.PutUint32(buf[9:13], count)
}

// encodeDeltaOp serializes a delta-coded frame (OpLookupSorted, OpLoad,
// OpSnapshotData) directly from the ascending run into the writer's
// scratch (header + delta+varint payload, byte count backpatched),
// avoiding a staging buffer on the send path.
//
//dc:noalloc
func (fw *frameWriter) encodeDeltaOp(op uint8, reqID uint32, vals []uint32) ([]byte, error) {
	if len(vals) > MaxFrameWords {
		return nil, fmt.Errorf("netrun: frame payload %d values exceeds limit", len(vals))
	}
	if cap(fw.buf) < 13 {
		fw.buf = make([]byte, 13)
	}
	buf, err := appendDeltaRun(fw.buf[:13], vals)
	if err != nil {
		return nil, err
	}
	fw.buf = buf[:0]
	fw.putHeader(buf, op, reqID, uint32(len(buf)-13))
	return buf, nil
}

func (fw *frameWriter) writeTo(w io.Writer, f Frame) error {
	buf, err := fw.encode(f)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("netrun: write frame: %w", err)
	}
	return nil
}

// frameReader decodes frames, reusing its payload buffers: a decoded
// frame's payload is valid only until the next read. Not safe for
// concurrent use.
type frameReader struct {
	head    [13]byte
	buf     []byte
	payload []uint32
}

//dc:noalloc
func (fr *frameReader) readFrom(r io.Reader) (Frame, error) {
	if _, err := io.ReadFull(r, fr.head[:]); err != nil {
		return Frame{}, err
	}
	if got := binary.LittleEndian.Uint32(fr.head[0:4]); got != Magic {
		return Frame{}, fmt.Errorf("netrun: bad magic %#x", got)
	}
	f := Frame{
		Op:    fr.head[4],
		ReqID: binary.LittleEndian.Uint32(fr.head[5:9]),
	}
	// Bounds-check as uint32 before converting: on 32-bit platforms a
	// corrupt length word >= 2^31 would wrap negative as int and slip
	// past the limit check.
	count32 := binary.LittleEndian.Uint32(fr.head[9:13])
	if wire[f.Op].enc != encWords {
		// v2 byte payload: count is a byte length; the delta decoder
		// applies its own element-count-vs-bytes guard on top.
		if count32 > MaxFrameBytes {
			return Frame{}, fmt.Errorf("netrun: frame payload %d bytes exceeds limit", count32)
		}
		n := int(count32)
		if n > 0 {
			if cap(fr.buf) < n {
				fr.buf = make([]byte, n)
			}
			f.Raw = fr.buf[:n]
			if _, err := io.ReadFull(r, f.Raw); err != nil {
				return Frame{}, fmt.Errorf("netrun: read payload: %w", err)
			}
		}
		return f, nil
	}
	if count32 > MaxFrameWords {
		return Frame{}, fmt.Errorf("netrun: frame payload %d words exceeds limit", count32)
	}
	count := int(count32)
	if count > 0 {
		if cap(fr.buf) < 4*count {
			fr.buf = make([]byte, 4*count)
		}
		buf := fr.buf[:4*count]
		if _, err := io.ReadFull(r, buf); err != nil {
			return Frame{}, fmt.Errorf("netrun: read payload: %w", err)
		}
		if cap(fr.payload) < count {
			fr.payload = make([]uint32, count)
		}
		f.Payload = fr.payload[:count]
		for i := range f.Payload {
			f.Payload[i] = binary.LittleEndian.Uint32(buf[4*i:])
		}
	}
	return f, nil
}

// bufferedConn pairs buffered reader/writer over one stream with
// reusable frame codecs; Flush after writing a batch of frames.
type bufferedConn struct {
	r  *bufio.Reader
	w  *bufio.Writer
	fr frameReader
	fw frameWriter
}

func newBufferedConn(rw io.ReadWriter) *bufferedConn {
	return &bufferedConn{r: bufio.NewReaderSize(rw, 1<<16), w: bufio.NewWriterSize(rw, 1<<16)}
}

func (bc *bufferedConn) writeFrame(f Frame) error { return bc.fw.writeTo(bc.w, f) }
func (bc *bufferedConn) readFrame() (Frame, error) {
	return bc.fr.readFrom(bc.r)
}
