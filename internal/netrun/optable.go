package netrun

import "encoding/binary"

// The op table: one row per request op, and the only place a per-op
// fact lives. The client's send loop encodes from a row, its read loop
// validates and delivers a reply by the row, failover/hedging/OpErr
// handling read the row's policy columns, the node's serve loop gates
// and dispatches by the row, and both sides name their latency series
// from it. Adding an op means adding a constant and a row; the
// framepair analyzer rejects a constant that is missing here or a
// request row without a handler.

// lossPolicy is what happens to a pending whose replica leaves the
// group (failure or drain) before it is answered.
type lossPolicy uint8

const (
	// lossNone marks a row no pending carries as its kind: hello and
	// add-replica are synchronous exchanges on a connection no loop owns
	// yet.
	lossNone lossPolicy = iota
	// lossRedispatch re-routes the request to a surviving replica: the
	// idempotent reads, whose request words survive until a reply lands.
	lossRedispatch
	// lossSettle completes a write as applied when a surviving replica
	// with the full state holds it (the departed member catches up on
	// rejoin), and fails it when none does.
	lossSettle
	// lossAbort fails the request: it is pinned to this exact member by
	// the catch-up or membership protocol (a snapshot's position in the
	// member's FIFO is what makes catch-up exactly-once), and its caller
	// retries the whole step.
	lossAbort
)

// errScope is how far an OpErr reply reaches.
type errScope uint8

const (
	// scopeConn: the refusal condemns the connection — the replica fails
	// and its pendings settle by their loss policies.
	scopeConn errScope = iota
	// scopeRequest: the node declined this one request and keeps
	// serving (an oversized snapshot or scan, a divergent delta load);
	// failing it over would only be refused identically.
	scopeRequest
)

// delivery is what the read loop does with a valid reply's elements.
type delivery uint8

const (
	// deliverAck: the reply only acknowledges; nothing to hand over.
	deliverAck delivery = iota
	// deliverStage decodes the elements into pending.reply for the
	// issuing call's gather loop.
	deliverStage
	// deliverScatter writes element i to the caller's out slot i maps to,
	// decoding the reply as it goes (pending.scatter).
	deliverScatter
)

// opSpec is one row of the op table.
type opSpec struct {
	// name labels the op's latency series (dc_node_op_ns{op=...} on the
	// node, dc_client_op_ns{op=...} on the client) and error messages.
	name string
	// minVer is the lowest protocol version the op may flow on: the
	// floor, or the version that introduced it.
	minVer uint32
	// reply is the op that answers this request.
	reply uint8
	// valid reports whether a reply's elements are a well-formed answer
	// to the request words. The read loop runs it before any element
	// reaches the caller.
	valid func(req []uint32, reply elems) bool

	// Client mux policy; zero on lossNone rows.
	hedge   bool // may be re-dispatched while still in flight (and is latency-scored and admission-capped)
	onLoss  lossPolicy
	onErr   errScope
	deliver delivery

	// Node dispatch: serve decodes the request where it uses it and ends
	// in answer, which encodes the reply frame from whatever the handler
	// produced; serve returns that frame. durable rows need a WAL-backed
	// node, one with a position to catch up from or to: the node refuses
	// them otherwise, and the client sends them only to a replica whose
	// hello ack said it is one (8 words).
	durable bool
	serve   func(s *nodeConn, id *nodeIdent, f Frame) ([]byte, error)
}

// Reply rules.

func sameLen(req []uint32, reply elems) bool    { return reply.len() == len(req) }
func onePerPair(req []uint32, reply elems) bool { return reply.len() == len(req)/2 }
func anyLen([]uint32, elems) bool               { return true }
func oneWord(_ []uint32, reply elems) bool      { return reply.len() == 1 }

// ascends is a scan's and a top-k's rule: the run does not descend
// (ComposeTopK reads it backward).
func ascends(_ []uint32, reply elems) bool {
	prev, raw := uint32(0), reply
	for len(raw) >= 4 {
		v := binary.LittleEndian.Uint32(raw)
		if v < prev {
			return false
		}
		prev, raw = v, raw[4:]
	}
	return true
}

// ackOf is a one-word reply echoing the request's key count past a
// hdr-word header.
func ackOf(hdr int) func([]uint32, elems) bool {
	return func(req []uint32, reply elems) bool {
		return reply.len() == 1 && int(reply.at(0)) == len(req)-hdr
	}
}

func snapDelta(_ []uint32, reply elems) bool { return reply.len() >= snapDeltaHeader }

// helloAck is [rankBase, keyCount, lo, hi, version], plus the live key
// count, plus the two chain words — 6 or 8 words. The four words a
// version-1 node sends and the five of an earlier build's read-only node
// are let through for hello to refuse by name; any other length is
// malformed.
func helloAck(_ []uint32, reply elems) bool {
	n := reply.len()
	return n >= 4 && n <= 8 && n != 7
}

// opMax is one past the highest op code: the size of every per-op
// table. A row keyed beyond it does not compile.
const opMax = int(OpMembAck) + 1

//dc:optable
var opTable = [opMax]opSpec{
	OpHello: {name: "hello", minVer: MinProtoVersion, reply: OpHelloAck, valid: helloAck,
		serve: (*nodeConn).serveHello},
	OpLookup: {name: "lookup", minVer: MinProtoVersion, reply: OpRanks, valid: sameLen,
		hedge: true, onLoss: lossRedispatch, onErr: scopeConn, deliver: deliverScatter,
		serve: (*nodeConn).serveLookup},
	// OpErr is no request: its row names it for the framepair check, and
	// the node refuses it like any op without a handler.
	OpErr: {minVer: MinProtoVersion},
	OpInsert: {name: "insert", minVer: MinProtoVersion, reply: OpInsertAck, valid: ackOf(0),
		onLoss: lossSettle, onErr: scopeConn, deliver: deliverAck,
		serve: (*nodeConn).serveInsert},
	OpSnapshot: {name: "snapshot", minVer: MinProtoVersion, reply: OpSnapshotData, valid: anyLen,
		onLoss: lossAbort, onErr: scopeRequest, deliver: deliverStage,
		serve: (*nodeConn).serveSnapshot},
	OpLoad: {name: "load", minVer: MinProtoVersion, reply: OpLoadAck, valid: ackOf(0),
		onLoss: lossAbort, onErr: scopeRequest, deliver: deliverAck,
		serve: (*nodeConn).serveLoad},
	OpSnapshotSince: {name: "snapshot_since", minVer: MinProtoVersion, reply: OpSnapshotDelta, valid: snapDelta,
		onLoss: lossAbort, onErr: scopeRequest, deliver: deliverStage,
		durable: true, serve: (*nodeConn).serveSnapshotSince},
	OpLoadAt: {name: "load_at", minVer: MinProtoVersion, reply: OpLoadAck, valid: ackOf(snapDeltaHeader),
		onLoss: lossAbort, onErr: scopeRequest, deliver: deliverAck,
		durable: true, serve: (*nodeConn).serveLoadAt},
	OpCountRange: {name: "count_range", minVer: MinProtoVersion, reply: OpCounts, valid: onePerPair,
		hedge: true, onLoss: lossRedispatch, onErr: scopeRequest, deliver: deliverStage,
		serve: (*nodeConn).serveCountRange},
	OpScanRange: {name: "scan_range", minVer: MinProtoVersion, reply: OpKeysDelta, valid: ascends,
		hedge: true, onLoss: lossRedispatch, onErr: scopeRequest, deliver: deliverStage,
		serve: (*nodeConn).serveScanRange},
	OpTopK: {name: "top_k", minVer: MinProtoVersion, reply: OpKeysDelta, valid: ascends,
		hedge: true, onLoss: lossRedispatch, onErr: scopeRequest, deliver: deliverStage,
		serve: (*nodeConn).serveTopK},
	OpMultiGet: {name: "multi_get", minVer: MinProtoVersion, reply: OpCounts, valid: sameLen,
		hedge: true, onLoss: lossRedispatch, onErr: scopeRequest, deliver: deliverScatter,
		serve: (*nodeConn).serveMultiGet},
	OpAddReplica: {name: "add_replica", minVer: MinProtoVersion, reply: OpMembAck, valid: oneWord,
		serve: (*nodeConn).serveAddReplica},
	OpDrainReplica: {name: "drain_replica", minVer: MinProtoVersion, reply: OpMembAck, valid: oneWord,
		onLoss: lossAbort, onErr: scopeRequest, deliver: deliverStage,
		serve: (*nodeConn).serveDrainReplica},
	OpSplitPartition: {name: "split_partition", minVer: MinProtoVersion, reply: OpMembAck, valid: oneWord,
		onLoss: lossAbort, onErr: scopeRequest, deliver: deliverStage,
		serve: (*nodeConn).serveSplitPartition},
}

// replyOf is each request op's reply op, copied from the rows at init:
// the node's reply sink reads it, and the handlers the table names cannot
// read the table itself.
var replyOf [opMax]uint8

func init() {
	for op := range opTable {
		replyOf[op] = opTable[op].reply
	}
}

// pendingKind reports whether the client mux carries the row as a
// pending's kind — exactly the rows with a loss policy, since every
// pending must say what happens when its replica leaves. Those rows get
// a dc_client_op_ns series.
func (r *opSpec) pendingKind() bool { return r.onLoss != lossNone }

// request returns op's row when op is a request this build serves.
func request(op uint8) *opSpec {
	if int(op) < opMax && opTable[op].serve != nil {
		return &opTable[op]
	}
	return nil
}
