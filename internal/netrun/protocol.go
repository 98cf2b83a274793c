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
// From v7 every payload is count 32-bit words, whatever the op — the
// paper's master sends each query "as a word over the network". A
// connection that negotiated v6 carries the op table's v6 codec
// (optable.go) instead: there a byte op's count is a byte length and its
// payload a varint run — delta-coded for ascending values (delta.go:
// varint(elements), the first value, then successive differences) or
// plain where the values are not monotone. The codecs' CPU cost more
// than their bytes saved on loopback, so v7 drops them; delta.go and the
// v6 codec column go once the floor is v7. Which op answers which, and
// how a reply is checked, is the op table. What each op carries, and its
// bytes on the wire at v7 (v6 where it differs):
//
//   - OpLookup: keys, any order; OpRanks answers with their global
//     ranks in request order — 8 bytes a key, 4 each way, at both
//     versions. The node takes the sorted kernel when a frame's keys
//     ascend (no flag says so), so an ascending run of a sorted call
//     travels in this form too. OpLookupSorted is the same request
//     delta-coded both ways at v6 (OpRanksDelta), 3.78 bytes a key on
//     the rank_tcp_sorted workload, but decoding and encoding it cost
//     more CPU than the search: the node serves it for clients of older
//     builds, no client of this build sends it, and it is deleted once
//     the floor is v7.
//   - OpInsert: keys to add to the node's partition (any order, words
//     at both versions); OpInsertAck echoes the applied count — on a
//     durable node, after the fsync. OpSnapshot asks for the node's full
//     key set (OpSnapshotData, 4 bytes a key; delta-coded at v6) and
//     OpLoad replaces it in the same form (OpLoadAck): a replica
//     rejoining a group that absorbed writes is loaded from a sibling's
//     snapshot before it serves again. A node refuses a load that
//     descends.
//   - OpSnapshotSince / OpLoadAt: the same catch-up between durable
//     nodes, by position. A WAL-backed node carries (generation, chain):
//     the count of keys it logged over its baseline and an
//     order-sensitive fold over them, so two replicas hold the same
//     insert history iff their positions match. OpSnapshotSince carries
//     the rejoiner's position (4 words, generation then chain, low word
//     first); OpSnapshotDelta answers [kind, gen(2), chain(2), keys...]
//     — kind 0 the insert tail in append order, kind 1 the full sorted
//     set when the sibling compacted past that generation, the chains
//     diverge or the tail does not fit a frame. OpLoadAt pushes that
//     payload at the rejoiner, which verifies a tail against the carried
//     position before applying anything and refuses a mismatch.
//   - OpCountRange: inclusive endpoint pairs lo1,hi1,lo2,hi2,... (words
//     at both versions); OpCounts answers one local count per pair, 4
//     bytes (a plain varint at v6). OpScanRange [lo, hi, limit] (0 =
//     unlimited) and OpTopK [k] are answered by OpKeysDelta, an
//     ascending key run of 4 bytes a key (delta-coded at v6; the op's
//     name is v6's): the client refuses a run that descends, and reads a
//     top-k run backward. OpMultiGet carries an ascending key run and
//     OpCounts answers each key's multiplicity, 8 bytes a key (at v6 a
//     delta run out and a varint back). The benchmark's ops_tcp
//     workload, which cycles the four, moves 8.3 bytes a key at v7 and
//     4.8 at v6. Partitions hold disjoint key sub-ranges, so the client
//     composes exact global answers from local ones: counts sum, scans
//     concatenate in partition order, top-k reads partitions from the
//     highest down.
//   - OpAddReplica [rankBase, baseN, loKey, hiKey] assigns an unassigned
//     node (dcnode -join) that slice of its key universe — a node that
//     already has an identity accepts only the same one; OpDrainReplica
//     (no payload) quiesces a node the client is detaching;
//     OpSplitPartition [newRankBase, newBaseN, loKey, hiKey, splitKey,
//     keepHi] makes a node keep one side of splitKey and swap its
//     identity to that half. Each is acknowledged by OpMembAck carrying
//     the node's live key count, and flows only while the client holds
//     its membership pause (nothing else in flight), which is what makes
//     the node-side identity swap safe.
//   - OpErr refuses a request; payload[0] is the refused op.
//
// The hello. A client opens with OpHello, its highest protocol version
// in the reqID field; the node answers OpHelloAck [rankBase, keyCount,
// loKey, hiKey, version] with version = min(client's, node's), and the
// ack's length states what the node can do:
//
//	5 words  read-only: serves reads of the key set it was started with
//	6 words  writable: + its LIVE key count (baseline plus absorbed inserts)
//	8 words  durable:  + its chain, low word first (generation = live - baseline)
//
// The identity is the node's baseline, which inserts never move, so a
// rejoining replica still verifies as the partition it was launched as;
// a fresh client seeds its rank-base corrections from live minus
// baseline. A read-only replica never receives a write, and stops being
// asked for reads once its partition has been written to: it can no
// longer prove it holds the full key set.
//
// The floor. This build speaks the current version and the one before
// it (MinProtoVersion..ProtoVersion), negotiated per connection:
//
//	          client v6   client v7
//	node v6       6           6
//	node v7       6           7      every payload as words
//
// The frame codec of a connection is its version's: the node fixes it
// when it answers the hello (or at accept, to its own version), the
// client when it reads the ack, before any other frame moves.
//
// A peer below the floor is refused by name (ErrProtoVersion), never
// served and never downgraded to: a node answers a hello below
// MinProtoVersion with OpErr and closes the connection, and a client
// fails its dial on an ack that names an older version or has only the
// four words a version-1 node sends. A connection that never says hello
// is served at the node's own version.
//
// Op x minimum version, for every request op a client may send. This
// matrix is a rendering of the op table, which is the definition; a
// test holds the two equal. v7 added no op — it changed the codec — so
// every op is at the floor:
//
//	v6  OpHello, OpLookup, OpLookupSorted, OpInsert, OpSnapshot, OpLoad, OpSnapshotSince, OpLoadAt
//	v6  OpCountRange, OpScanRange, OpTopK, OpMultiGet, OpAddReplica, OpDrainReplica, OpSplitPartition
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
	"errors"
	"fmt"
	"io"
)

// Magic identifies protocol frames; a mismatch means the peer is not a
// netrun node (or the stream desynchronized) and the connection dies.
const Magic uint32 = 0xDC1D_2005

// Protocol versions: this build speaks MinProtoVersion..ProtoVersion,
// the current version and the one before it. The hello exchange
// negotiates min(client, node) per connection and refuses a peer below
// the floor with ErrProtoVersion.
const (
	ProtoV6 = 6
	ProtoV7 = 7

	MinProtoVersion = ProtoV6
	ProtoVersion    = ProtoV7
)

// ErrProtoVersion refuses a protocol version this build does not speak:
// a peer's at the hello, or a Node.MaxVersion setting at Serve.
var ErrProtoVersion = errors.New("netrun: unsupported protocol version")

// Op codes.
const (
	// OpHello is sent by the client on connect, with the client's
	// highest protocol version in the reqID field; the node answers
	// with OpHelloAck [rankBase, keyCount, loKey, hiKey, version] plus
	// the words that state what it can do (see the package doc).
	OpHello uint8 = 1
	// OpHelloAck is the node's hello response.
	OpHelloAck uint8 = 2
	// OpLookup carries keys; the node answers OpRanks with ranks.
	OpLookup uint8 = 3
	// OpRanks is the node's lookup response.
	OpRanks uint8 = 4
	// OpErr refuses a request; payload[0] is the refused op. How far the
	// refusal reaches is the request row's onErr column: answering a
	// lookup or an insert it condemns the connection, answering a
	// catch-up, query or membership op it declines that one request and
	// the node keeps serving.
	OpErr uint8 = 5
	// OpLookupSorted carries an ascending key run, delta+varint
	// coded at v6 (byte payload); the node answers OpRanksDelta. Served
	// for clients of older builds, sent by none of this one.
	OpLookupSorted uint8 = 6
	// OpRanksDelta is the sorted lookup's response: the
	// nondecreasing ranks, delta+varint coded at v6.
	OpRanksDelta uint8 = 7
	// OpInsert carries count keys (word payload, any order) to add
	// to the node's partition; the node answers OpInsertAck.
	OpInsert uint8 = 8
	// OpInsertAck acknowledges an insert; payload[0] is the
	// applied key count.
	OpInsertAck uint8 = 9
	// OpSnapshot (no payload) requests the node's full current key
	// set; the node answers OpSnapshotData.
	OpSnapshot uint8 = 10
	// OpSnapshotData is the snapshot response: the sorted key set
	// (delta+varint coded at v6).
	OpSnapshotData uint8 = 11
	// OpLoad pushes a full sorted key set (delta+varint coded at v6)
	// that atomically replaces the node's current set — the replica
	// catch-up path. The node answers OpLoadAck, or refuses a set that
	// descends.
	OpLoad uint8 = 12
	// OpLoadAck acknowledges a load; payload[0] is the loaded key
	// count.
	OpLoadAck uint8 = 13
	// OpSnapshotSince asks a durable node for the insert tail after
	// a position: payload is 4 words, generation then chain, low word
	// first. Answered by OpSnapshotDelta.
	OpSnapshotSince uint8 = 14
	// OpSnapshotDelta is the positioned-catch-up payload: [kind,
	// gen(2), chain(2), keys...]. kind 0 = delta tail in append order,
	// kind 1 = full sorted snapshot; gen/chain are the position the
	// payload advances its consumer to.
	OpSnapshotDelta uint8 = 15
	// OpLoadAt pushes an OpSnapshotDelta-shaped payload at a
	// durable node; acknowledged by OpLoadAck with the applied key
	// count, or refused with OpErr when a delta does not reproduce the
	// carried position (divergent histories).
	OpLoadAt uint8 = 16
	// OpCountRange carries inclusive range endpoint pairs (word
	// payload: lo1,hi1,lo2,hi2,...); the node answers OpCounts with
	// each pair's local key count.
	OpCountRange uint8 = 17
	// OpScanRange carries [lo, hi, limit] (word payload; limit 0
	// means unlimited); the node answers OpKeysDelta with its keys in
	// [lo, hi], ascending, at most limit of them.
	OpScanRange uint8 = 18
	// OpTopK carries [k] (word payload); the node answers
	// OpKeysDelta with its k largest keys — ascending on the wire, the
	// client reads the run backward.
	OpTopK uint8 = 19
	// OpMultiGet carries an ascending key run (delta+varint coded at
	// v6); the node answers OpCounts with each key's multiplicity.
	OpMultiGet uint8 = 20
	// OpKeysDelta answers OpScanRange and OpTopK: an ascending key
	// run (delta+varint coded at v6).
	OpKeysDelta uint8 = 21
	// OpCounts answers OpCountRange and OpMultiGet: one count per
	// request element (at v6 a plain varint run; counts are not
	// monotone, so no delta coding — see appendVarRun).
	OpCounts uint8 = 22
	// OpAddReplica assigns a partition identity to a joinable
	// node: payload [rankBase, baseN, loKey, hiKey] names the slice of
	// the node's key universe it is to serve and the key bounds the
	// client expects there. A node already holding an identity accepts
	// only a matching assignment. Answered by OpMembAck.
	OpAddReplica uint8 = 23
	// OpDrainReplica (no payload) quiesces a node ahead of the
	// client detaching it from its replica group. Answered by
	// OpMembAck.
	OpDrainReplica uint8 = 24
	// OpSplitPartition retargets a node at one half of its split
	// partition: payload [newRankBase, newBaseN, loKey, hiKey,
	// splitKey, keepHi]. The node filters its live keys at splitKey
	// (keepHi selects the side), swaps its identity to the named half,
	// and answers OpMembAck.
	OpSplitPartition uint8 = 25
	// OpMembAck acknowledges a membership op; payload[0] is the
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

// MaxFrameWords bounds a word payload (16M words = 64 MB) so a corrupt
// length cannot force an absurd allocation. MaxFrameBytes is the bound
// of a v6 byte payload: the same 16M elements at the 5-byte varint worst
// case.
const (
	MaxFrameWords = 16 << 20
	MaxFrameBytes = 5 * MaxFrameWords
)

// Frame is one protocol frame. A word payload is Payload for WriteFrame
// and ReadFrame, which speak the current protocol; on the serving paths
// — the connection reader the node's serve loop and the client's read
// loop share — it arrives in Raw instead, as its 4·count little-endian
// bytes, checked for length and not decoded: each consumer decodes the
// words in the pass that uses them. On a v6 connection a byte op (the
// op table's v6 codec encDelta or encVarint) carries its payload in Raw
// both ways.
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

// ReadFrame decodes one frame from r, allocating a fresh payload decoded
// into Payload; the hot paths use a reusable frameReader instead.
func ReadFrame(r io.Reader) (Frame, error) {
	var fr frameReader
	f, err := fr.readFrom(r)
	if err != nil {
		return Frame{}, err
	}
	f.Payload, f.Raw = decodeWords[uint32](f.Raw, nil), nil
	return f, nil
}

// frameWriter encodes frames, reusing one scratch buffer across calls so
// the steady state allocates nothing. Its zero value speaks the current
// protocol; v6 marks a connection that negotiated v6. Not safe for
// concurrent use.
type frameWriter struct {
	buf []byte
	v6  bool
}

// encode serializes f into the writer's scratch buffer and returns it
// (valid until the next encode). Splitting encoding from the socket
// write lets a caller stop referencing f.Payload before any blocking
// I/O starts. A byte op of a v6 connection takes its payload from f.Raw.
//
//dc:noalloc
func (fw *frameWriter) encode(f Frame) ([]byte, error) {
	if codecOf(f.Op, fw.v6) == encWords {
		return encodeRun(fw, f.Op, f.ReqID, f.Payload)
	}
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

// encodeRun serializes a frame of op straight from the elements that make
// its payload, under the connection's codec for op — words, or on a v6
// connection delta or varint — into the writer's scratch (valid until
// the next encode), narrowing each element to 32 bits as it is encoded:
// a node replies from what its ranker or scan produced, and the client
// sends a pending's words, with no conversion pass before the encode. A
// byte payload's length is backpatched into the header.
//
//dc:noalloc
func encodeRun[T ~uint32 | ~int](fw *frameWriter, op uint8, reqID uint32, vals []T) ([]byte, error) {
	if len(vals) > MaxFrameWords {
		return nil, fmt.Errorf("netrun: frame payload %d elements exceeds limit", len(vals))
	}
	enc := codecOf(op, fw.v6)
	if enc == encWords {
		need := 13 + 4*len(vals)
		if cap(fw.buf) < need {
			fw.buf = make([]byte, need)
		}
		buf := fw.buf[:need]
		fw.putHeader(buf, op, reqID, uint32(len(vals)))
		// As in decodeWords, the len(b) condition always holds and drops
		// the bounds checks.
		b := buf[13:]
		for i := 0; i < len(vals) && len(b) >= 4; i++ {
			binary.LittleEndian.PutUint32(b, uint32(vals[i]))
			b = b[4:]
		}
		return buf, nil
	}
	// One growth, to the header plus the codec's worst case.
	buf := grow(fw.buf[:0], 13+5+5*len(vals))[:13]
	if enc == encDelta {
		var err error
		if buf, err = appendDeltaRun(buf, vals); err != nil {
			return nil, err
		}
	} else {
		buf = appendVarRun(buf, vals)
	}
	fw.buf = buf[:0]
	if len(buf)-13 > MaxFrameBytes {
		return nil, fmt.Errorf("netrun: frame payload %d bytes exceeds limit", len(buf)-13)
	}
	fw.putHeader(buf, op, reqID, uint32(len(buf)-13))
	return buf, nil
}

//dc:noalloc
func (fw *frameWriter) putHeader(buf []byte, op uint8, reqID, count uint32) {
	binary.LittleEndian.PutUint32(buf[0:4], Magic)
	buf[4] = op
	binary.LittleEndian.PutUint32(buf[5:9], reqID)
	binary.LittleEndian.PutUint32(buf[9:13], count)
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

// frameReader reads frames, reusing one payload buffer: a frame's Raw is
// valid only until the next read. A word payload comes back undecoded,
// as Raw (see Frame). Like frameWriter, its zero value speaks the
// current protocol and v6 marks a v6 connection. Not safe for concurrent
// use.
type frameReader struct {
	head [13]byte
	buf  []byte
	v6   bool
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
	var n int
	if codecOf(f.Op, fr.v6) == encWords {
		if count32 > MaxFrameWords {
			return Frame{}, fmt.Errorf("netrun: frame payload %d words exceeds limit", count32)
		}
		n = 4 * int(count32)
	} else {
		// Byte payload: count is a byte length; the run decoders apply
		// their own element-count-vs-bytes guard on top.
		if count32 > MaxFrameBytes {
			return Frame{}, fmt.Errorf("netrun: frame payload %d bytes exceeds limit", count32)
		}
		n = int(count32)
	}
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

// setVersion fixes the codec of the connection's frames to version v's,
// once the hello has settled it.
func (bc *bufferedConn) setVersion(v uint32) {
	bc.fr.v6 = v < ProtoV7
	bc.fw.v6 = bc.fr.v6
}

func (bc *bufferedConn) writeFrame(f Frame) error { return bc.fw.writeTo(bc.w, f) }
func (bc *bufferedConn) readFrame() (Frame, error) {
	return bc.fr.readFrom(bc.r)
}
