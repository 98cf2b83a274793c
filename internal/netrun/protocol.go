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
// Every payload is count 32-bit words, whatever the op — the paper's
// master sends each query "as a word over the network". Which op answers
// which, and how a reply is checked, is the op table (optable.go). What
// each op carries, and its bytes on the wire:
//
//   - OpLookup: keys, any order; OpRanks answers with their ranks in
//     request order — the node's local rank plus its static rank base, 8
//     bytes a key, 4 each way. The node takes the sorted kernel when a
//     frame's keys ascend (no flag says so), so an ascending run of a
//     sorted call travels in this form too. Inserts into a partition
//     move the global ranks above it, which no static base knows: the
//     client corrects the bases from each lower partition's live key
//     count, asked as an OpCountRange of the whole key space in the same
//     call (see Cluster.LookupBatchInto).
//   - OpInsert: keys to add to the node's partition (any order);
//     OpInsertAck echoes the applied count — on a durable node, after
//     the fsync. OpSnapshot asks for the node's full key set
//     (OpSnapshotData, 4 bytes a key) and OpLoad replaces it in the same
//     form (OpLoadAck): a replica rejoining a group that absorbed writes
//     is loaded from a sibling's snapshot before it serves again. A node
//     refuses a load that descends.
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
//   - OpCountRange: inclusive endpoint pairs lo1,hi1,lo2,hi2,...;
//     OpCounts answers one local count per pair, 4 bytes. OpScanRange
//     [lo, hi, limit] (0 = unlimited) and OpTopK [k] are answered by
//     OpKeysDelta, an ascending key run of 4 bytes a key (the name is
//     from the builds that delta-coded it): the client refuses a run that
//     descends, and reads a top-k run backward. OpMultiGet carries an
//     ascending key run and OpCounts answers each key's multiplicity, 8
//     bytes a key. The benchmark's ops_tcp workload, which cycles the
//     four, moves 8.3 bytes a key. Partitions hold disjoint key
//     sub-ranges, so the client composes exact global answers from local
//     ones: counts sum, scans concatenate in partition order, top-k reads
//     partitions from the highest down.
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
// Op codes 6 and 7 were the delta-coded sorted lookup and its reply of
// the builds that spoke v6. This build knows neither: a node refuses the
// request like any unknown op, and a reply in either costs the client
// the connection like any op that does not answer its request.
//
// The hello. A client opens with OpHello, its highest protocol version
// in the reqID field; the node answers OpHelloAck [rankBase, keyCount,
// loKey, hiKey, version] with version = min(client's, node's), and the
// ack's length states what the node is:
//
//	6 words  writable: + its LIVE key count (baseline plus absorbed inserts)
//	8 words  durable:  + its chain, low word first (generation = live - baseline)
//
// Every node takes writes. The identity is the node's baseline, which
// inserts never move, so a rejoining replica still verifies as the
// partition it was launched as; a client that finds a live count above
// the baseline at dial knows the partition was written. A client fails
// its dial on any other shape: the 5 words an earlier build's read-only
// node sent, 7 or more than 8 words, or a live count below the baseline.
//
// The floor. This build speaks one version, v7 (MinProtoVersion ==
// ProtoVersion), in which every payload is words; no op uses v6's delta
// and varint codecs (delta.go keeps them as a tested library). The next wire change adds one version and
// keeps this one: a build speaks the version the build before it speaks.
// The hello's version word, its negotiation of min(client, node) and the
// op table's minVer column stay for that change to add its version
// through:
//
//	          client v7
//	node v7       7      every payload as words
//
// A peer below the floor is refused by name (ErrProtoVersion), never
// served and never downgraded to: a node answers a hello below
// MinProtoVersion with OpErr and closes the connection, and a client
// fails its dial on an ack that names an older version or has only the
// four words a version-1 node sends. A connection that never says hello
// is served at this build's version.
//
// Op x minimum version, for every request op a client may send. This
// matrix is a rendering of the op table, which is the definition; a
// test holds the two equal. Every op is at the floor:
//
//	v7  OpHello, OpLookup, OpInsert, OpSnapshot, OpLoad, OpSnapshotSince, OpLoadAt
//	v7  OpCountRange, OpScanRange, OpTopK, OpMultiGet, OpAddReplica, OpDrainReplica, OpSplitPartition
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
// today the one version v7. The hello exchange negotiates min(client,
// node) per connection and refuses a peer below the floor with
// ErrProtoVersion.
const (
	ProtoV7 = 7

	MinProtoVersion = ProtoV7
	ProtoVersion    = ProtoV7
)

// ErrProtoVersion refuses a protocol version this build does not speak:
// a peer's, at the hello.
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
	// OpInsert carries count keys (any order) to add
	// to the node's partition; the node answers OpInsertAck.
	OpInsert uint8 = 8
	// OpInsertAck acknowledges an insert; payload[0] is the
	// applied key count.
	OpInsertAck uint8 = 9
	// OpSnapshot (no payload) requests the node's full current key
	// set; the node answers OpSnapshotData.
	OpSnapshot uint8 = 10
	// OpSnapshotData is the snapshot response: the sorted key set.
	OpSnapshotData uint8 = 11
	// OpLoad pushes a full sorted key set that atomically replaces the
	// node's current set — the replica catch-up path. The node answers
	// OpLoadAck, or refuses a set that descends.
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
	// OpCountRange carries inclusive range endpoint pairs
	// (lo1,hi1,lo2,hi2,...); the node answers OpCounts with each pair's
	// local key count.
	OpCountRange uint8 = 17
	// OpScanRange carries [lo, hi, limit] (limit 0 means unlimited); the node answers OpKeysDelta with its keys in
	// [lo, hi], ascending, at most limit of them.
	OpScanRange uint8 = 18
	// OpTopK carries [k]; the node answers
	// OpKeysDelta with its k largest keys — ascending on the wire, the
	// client reads the run backward.
	OpTopK uint8 = 19
	// OpMultiGet carries an ascending key run; the node answers
	// OpCounts with each key's multiplicity.
	OpMultiGet uint8 = 20
	// OpKeysDelta answers OpScanRange and OpTopK: an ascending key
	// run.
	OpKeysDelta uint8 = 21
	// OpCounts answers OpCountRange and OpMultiGet: one count per
	// request element.
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

// MaxFrameWords bounds a payload (16M words = 64 MB) so a corrupt length
// cannot force an absurd allocation.
const MaxFrameWords = 16 << 20

// Frame is one protocol frame. Its payload is Payload for WriteFrame and
// ReadFrame; on the serving paths — the connection reader the node's
// serve loop and the client's read loop share — it arrives in Raw
// instead, as its 4·count little-endian bytes, checked for length and not
// decoded: each consumer decodes the words in the pass that uses them.
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

// frameWriter encodes frames, reusing one scratch buffer across calls so
// the steady state allocates nothing. Not safe for concurrent use.
type frameWriter struct {
	buf []byte
}

// encode serializes f into the writer's scratch buffer and returns it
// (valid until the next encode). Splitting encoding from the socket
// write lets a caller stop referencing f.Payload before any blocking
// I/O starts.
//
//dc:noalloc
func (fw *frameWriter) encode(f Frame) ([]byte, error) {
	return encodeRun(fw, f.Op, f.ReqID, f.Payload)
}

// encodeRun serializes a frame of op straight from the elements that make
// its payload into the writer's scratch (valid until the next encode),
// narrowing each element to a 32-bit word as it is encoded: a node
// replies from what its ranker or scan produced, and the client sends a
// pending's words, with no conversion pass before the encode.
//
//dc:noalloc
func encodeRun[T ~uint32 | ~int](fw *frameWriter, op uint8, reqID uint32, vals []T) ([]byte, error) {
	if len(vals) > MaxFrameWords {
		return nil, fmt.Errorf("netrun: frame payload %d elements exceeds limit", len(vals))
	}
	need := 13 + 4*len(vals)
	if cap(fw.buf) < need {
		fw.buf = make([]byte, need)
	}
	buf := fw.buf[:need]
	binary.LittleEndian.PutUint32(buf[0:4], Magic)
	buf[4] = op
	binary.LittleEndian.PutUint32(buf[5:9], reqID)
	binary.LittleEndian.PutUint32(buf[9:13], uint32(len(vals)))
	// As in decodeWords, the len(b) condition always holds and drops the
	// bounds checks.
	b := buf[13:]
	for i := 0; i < len(vals) && len(b) >= 4; i++ {
		binary.LittleEndian.PutUint32(b, uint32(vals[i]))
		b = b[4:]
	}
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

// frameReader reads frames, reusing one payload buffer: a frame's Raw is
// valid only until the next read, and comes back undecoded (see Frame).
// Not safe for concurrent use.
type frameReader struct {
	head [13]byte
	buf  []byte
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
	if count32 > MaxFrameWords {
		return Frame{}, fmt.Errorf("netrun: frame payload %d words exceeds limit", count32)
	}
	if n := 4 * int(count32); n > 0 {
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

func (bc *bufferedConn) writeFrame(f Frame) error { return bc.fw.writeTo(bc.w, f) }
func (bc *bufferedConn) readFrame() (Frame, error) {
	return bc.fr.readFrom(bc.r)
}
