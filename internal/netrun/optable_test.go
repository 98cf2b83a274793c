package netrun

import (
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestOpTableCoversEveryOp: every Op* constant in protocol.go is known
// to the op table (as a row or as a row's reply), and every
// request row's minimum version equals the "Op x minimum version"
// matrix in the package comment — the matrix is a rendering of the
// table, and this test is what keeps it one.
func TestOpTableCoversEveryOp(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "protocol.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]uint8{}
	ast.Inspect(file, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range vs.Names {
			if !strings.HasPrefix(name.Name, "Op") || i >= len(vs.Values) {
				continue
			}
			lit, ok := vs.Values[i].(*ast.BasicLit)
			if !ok {
				continue
			}
			v, err := strconv.Atoi(lit.Value)
			if err != nil {
				t.Fatalf("%s = %s: %v", name.Name, lit.Value, err)
			}
			ops[name.Name] = uint8(v)
		}
		return true
	})
	if len(ops) < 24 {
		t.Fatalf("parsed only %d Op constants from protocol.go", len(ops))
	}
	known := map[uint8]bool{}
	for op := range opTable {
		if row := &opTable[op]; row.minVer != 0 {
			known[uint8(op)] = true
			known[row.reply] = true
		}
	}
	for name, op := range ops {
		if !known[op] {
			t.Errorf("%s (op %d) is in neither a row nor a reply column of the op table", name, op)
		}
	}

	// The matrix: lines of the form "v7  OpAddReplica, OpDrainReplica".
	matrix := map[uint8]uint32{}
	line := regexp.MustCompile(`(?m)^\tv(\d)\s+(Op\w+(?:, Op\w+)*)$`)
	for _, m := range line.FindAllStringSubmatch(file.Doc.Text(), -1) {
		v, _ := strconv.Atoi(m[1])
		for _, name := range strings.Split(m[2], ", ") {
			op, ok := ops[name]
			if !ok {
				t.Fatalf("package-comment matrix names unknown op %s", name)
			}
			matrix[op] = uint32(v)
		}
	}
	for op := range opTable {
		row := request(uint8(op))
		if row == nil {
			if _, listed := matrix[uint8(op)]; listed {
				t.Errorf("matrix lists op %d, which the table does not serve as a request", op)
			}
			continue
		}
		if got, ok := matrix[uint8(op)]; !ok || got != row.minVer {
			t.Errorf("%s: table minVer v%d, package-comment matrix says v%d (listed=%v)", row.name, row.minVer, got, ok)
		}
		if row.valid == nil || row.name == "" {
			t.Errorf("op %d: request row without a name or a valid rule", op)
		}
		if !row.pendingKind() && (row.hedge || row.onErr != scopeConn || row.deliver != deliverAck) {
			t.Errorf("%s: client policy columns set on a row no pending carries", row.name)
		}
	}
}

// scriptNode is a fake replica: it answers every request frame with
// whatever script returns, and a hello the script has no answer to as a
// writable single-partition node over keys at this build's version. A
// reply with Raw bytes and no Payload goes out as those bytes, and the
// connection closes after it: a stream cut mid-frame. It accepts one
// connection.
func scriptNode(t *testing.T, keys []workload.Key, script func(req Frame) []Frame) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		bc := newBufferedConn(conn)
		for {
			f, err := bc.readFrame()
			if err != nil {
				return
			}
			replies := script(f)
			if f.Op == OpHello && replies == nil {
				replies = []Frame{{Op: OpHelloAck, ReqID: f.ReqID, Payload: helloWords(keys, min(f.ReqID, ProtoVersion), 6)}}
			}
			for _, r := range replies {
				if r.Payload == nil && r.Raw != nil {
					bc.w.Write(r.Raw)
					bc.w.Flush()
					return
				}
				if bc.writeFrame(r) != nil {
					return
				}
			}
			if bc.w.Flush() != nil {
				return
			}
		}
	}()
	return lis.Addr().String()
}

// helloWords is the first n words of a durable single-partition node's
// hello ack over keys at version ver, with no insert absorbed.
func helloWords(keys []workload.Key, ver uint32, n int) []uint32 {
	return []uint32{0, uint32(len(keys)), uint32(keys[0]), uint32(keys[len(keys)-1]), ver, uint32(len(keys)), 1, 0}[:n]
}

// asElems is words as a reply's elements.
func asElems(words []uint32) elems {
	e := make(elems, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(e[4*i:], w)
	}
	return e
}

// replyCandidate searches small all-zero and ack-shaped payloads for
// one that row.valid accepts (want=true) or rejects (want=false).
func replyCandidate(row *opSpec, req []uint32, want bool) ([]uint32, bool) {
	cands := [][]uint32{{uint32(len(req))}, {uint32(len(req) - snapDeltaHeader)}, {uint32(len(req)) + 7}}
	for k := 0; k <= len(req)+8; k++ {
		cands = append(cands, make([]uint32, k))
	}
	for _, c := range cands {
		if row.valid(req, asElems(c)) == want {
			return c, true
		}
	}
	return nil, false
}

// hostileCase is how the table test issues one request kind against the
// hostile replica and recognizes the honest sibling's answer.
type hostileCase struct {
	req []uint32
	// retired, when non-zero, is the reply op the builds that spoke v6
	// took for this request, which this build does not know: the wrong-op
	// and corrupt-payload replies use it.
	retired uint8
	// check verifies what an honest replica's answer delivered: out for
	// the scattering kinds, p.reply for the staging ones.
	check func(t *testing.T, out []int, reply []uint32)
}

// TestOpTableHostileReplies walks every row a pending can carry (and an
// ascending lookup, which goes out as the same OpLookup word frame)
// against a scripted hostile replica beside an honest sibling — wrong
// reply op, wrong element count, unknown reqID, a reply cut short
// mid-payload, OpErr, and a scan or top-k run that descends — and
// asserts the failure scope the row declares: a protocol
// violation always costs the connection, after which the request is
// re-dispatched (reads, answered exactly by the sibling), settled
// (writes) or aborted (pinned ops); an OpErr reaches only as far as the
// row's onErr says. No wrong answer ever completes.
// The hello is no pending, so its hostile shapes fail the dial: an ack
// of four words (a version-1 node's) or of seven (no shape at all).
func TestOpTableHostileReplies(t *testing.T) {
	keys := workload.SortedKeys(3000, 91)
	for _, n := range []int{4, 7} {
		t.Run(fmt.Sprintf("hello/%d-word-ack", n), func(t *testing.T) {
			addr := scriptNode(t, keys, func(req Frame) []Frame {
				return []Frame{{Op: OpHelloAck, ReqID: req.ReqID, Payload: helloWords(keys, ProtoVersion, n)}}
			})
			c, err := Dial([]string{addr}, keys, DialOptions{})
			if err == nil {
				c.Close()
				t.Fatalf("Dial accepted a %d-word hello ack", n)
			}
		})
	}
	o := newTCPOracle(keys)
	lo, hi := uint32(keys[100]), uint32(keys[900])
	countIn := func(lo, hi uint32) int { return o.rank(workload.Key(hi)) - o.rank(workload.Key(lo)-1) }

	asc := workload.UniformQueries(64, 92)
	slices.Sort(asc)
	words := func(ks []workload.Key) []uint32 {
		w := make([]uint32, len(ks))
		for i, k := range ks {
			w[i] = uint32(k)
		}
		return w
	}
	ranksOf := func(ks []workload.Key) func(*testing.T, []int, []uint32) {
		return func(t *testing.T, out []int, _ []uint32) {
			for i, k := range ks {
				if out[i] != o.rank(k) {
					t.Fatalf("rank[%d] = %d, want %d", i, out[i], o.rank(k))
				}
			}
		}
	}
	full := words(keys)
	qs := workload.UniformQueries(64, 92)
	cases := map[uint8]hostileCase{
		OpLookup:        {req: words(qs), check: ranksOf(qs)},
		OpInsert:        {req: []uint32{5, 6, 7}},
		OpSnapshot:      {},
		OpLoad:          {req: full},
		OpSnapshotSince: {req: []uint32{1, 0, 2, 0}},
		OpLoadAt:        {req: append([]uint32{snapKindFull, 0, 0, 0, 0}, full...)},
		OpCountRange: {req: []uint32{lo, hi, hi, lo}, check: func(t *testing.T, _ []int, reply []uint32) {
			if want := []uint32{uint32(countIn(lo, hi)), 0}; !slices.Equal(reply, want) {
				t.Fatalf("counts = %v, want %v", reply, want)
			}
		}},
		OpScanRange: {req: []uint32{lo, hi, 10}, check: func(t *testing.T, _ []int, reply []uint32) {
			if !slices.Equal(reply, full[100:110]) {
				t.Fatalf("scan = %v, want %v", reply, full[100:110])
			}
		}},
		OpTopK: {req: []uint32{4}, check: func(t *testing.T, _ []int, reply []uint32) {
			if !slices.Equal(reply, full[len(full)-4:]) {
				t.Fatalf("top-k run = %v, want %v", reply, full[len(full)-4:])
			}
		}},
		OpMultiGet: {req: words(asc), check: func(t *testing.T, out []int, _ []uint32) {
			for i, k := range asc {
				if want := countIn(uint32(k), uint32(k)); out[i] != want {
					t.Fatalf("multiplicity[%d] = %d, want %d", i, out[i], want)
				}
			}
		}},
		OpDrainReplica:   {},
		OpSplitPartition: {req: []uint32{0, 1500, uint32(keys[0]), uint32(keys[1499]), uint32(keys[1499]), 0}},
	}
	for op := range opTable {
		if _, ok := cases[uint8(op)]; ok != opTable[op].pendingKind() {
			t.Fatalf("op %d (%s): the hostile-reply cases and the table's pending kinds disagree", op, opTable[op].name)
		}
	}

	type run struct {
		name string
		op   uint8
		hc   hostileCase
	}
	var runs []run
	for op, hc := range cases {
		runs = append(runs, run{opTable[op].name, op, hc})
	}
	// An ascending lookup is the same word frame. The builds that spoke v6
	// sent it as op 6, answered by op 7: that reply, well formed or cut
	// short, must now cost the connection like any wrong op.
	runs = append(runs, run{"lookup_sorted", OpLookup, hostileCase{req: words(asc), retired: 7, check: ranksOf(asc)}})

	hostilities := []string{"wrong-op", "wrong-count", "unknown-reqid", "corrupt-payload", "op-err", "descending"}
	for _, r := range runs {
		kind, hc := &opTable[r.op], r.hc
		for _, h := range hostilities {
			if h == "descending" && (kind.valid(hc.req, asElems([]uint32{2, 1})) || !kind.valid(hc.req, asElems([]uint32{1, 2}))) {
				continue // the row's reply is no run, or any order will do
			}
			t.Run(fmt.Sprintf("%s/%s", r.name, h), func(t *testing.T) {
				var hostile func(req Frame) []Frame
				switch h {
				case "wrong-op":
					wrong := OpCounts
					if kind.reply == OpCounts {
						wrong = OpRanks
					}
					if hc.retired != 0 {
						wrong = hc.retired
					}
					hostile = func(req Frame) []Frame {
						return []Frame{{Op: wrong, ReqID: req.ReqID, Payload: make([]uint32, len(hc.req))}}
					}
				case "wrong-count":
					bad, ok := replyCandidate(kind, hc.req, false)
					if !ok {
						t.Skip("the row accepts any element count")
					}
					hostile = func(req Frame) []Frame { return []Frame{{Op: kind.reply, ReqID: req.ReqID, Payload: bad}} }
				case "unknown-reqid":
					good, ok := replyCandidate(kind, hc.req, true)
					if !ok {
						t.Fatal("no well-formed reply candidate")
					}
					hostile = func(req Frame) []Frame { return []Frame{{Op: kind.reply, ReqID: req.ReqID + 1000, Payload: good}} }
				case "corrupt-payload":
					// A reply frame that promises two words and carries five
					// bytes, then the end of the stream.
					reply := kind.reply
					if hc.retired != 0 {
						reply = hc.retired
					}
					hostile = func(req Frame) []Frame {
						var fw frameWriter
						b, _ := fw.encode(Frame{Op: reply, ReqID: req.ReqID, Payload: []uint32{1, 2}})
						return []Frame{{Raw: b[:len(b)-3]}}
					}
				case "op-err":
					hostile = func(req Frame) []Frame {
						return []Frame{{Op: OpErr, ReqID: req.ReqID, Payload: []uint32{uint32(req.Op)}}}
					}
				case "descending":
					// A scan's or top-k's run the delta codec could not
					// carry: ComposeTopK would read it backward.
					hostile = func(req Frame) []Frame { return []Frame{{Op: kind.reply, ReqID: req.ReqID, Payload: []uint32{2, 1}}} }
				}
				runHostile(t, keys, r.op, hc, h == "op-err", hostile)
			})
		}
	}
}

// runHostile issues hc's request of op at a hostile replica beside an
// honest sibling, and checks the outcome against the row's failure scope.
func runHostile(t *testing.T, keys []workload.Key, op uint8, hc hostileCase, opErr bool, hostile func(Frame) []Frame) {
	kind := &opTable[op]
	var sawOp atomic.Uint32
	bad := scriptNode(t, keys, func(req Frame) []Frame {
		if req.Op == OpHello {
			return []Frame{{Op: OpHelloAck, ReqID: req.ReqID, Payload: helloWords(keys, ProtoVersion, 6)}}
		}
		sawOp.Store(uint32(req.Op))
		return hostile(req)
	})
	honest := NewPartitionNode(keys, 0)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go honest.Serve(lis)
	defer honest.Close()
	setVar(t, &rejoinBackoff, time.Hour)
	c, err := Dial([]string{bad + "|" + lis.Addr().String()}, keys, DialOptions{OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var target *clusterNode
	for _, n := range testNodes(t, c) {
		if n.r.addr == bad {
			target = n
		}
	}

	// Issue the request pinned at the hostile member, the way the
	// membership and catch-up paths pin theirs.
	p := c.getPending()
	p.op = op
	p.keys = append(p.keys, hc.req...)
	p.contig = true
	p.out = make([]int, len(hc.req))
	p.done = make(chan *pending, 1)
	p.refs.Store(2)
	if ok, _ := target.enqueue(p, c.reqID.Add(1), 0); !ok {
		t.Fatal("hostile member refused the enqueue")
	}
	var r *pending
	select {
	case r = <-p.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the request never completed")
	}
	defer c.release(r)

	if got := uint8(sawOp.Load()); got != op {
		t.Fatalf("request went out as op %d, want op %d", got, op)
	}
	var failures uint64
	for _, h := range c.Stats().Replicas {
		if h.Addr == bad {
			failures = h.Failures
		}
	}
	if opErr && kind.onErr == scopeRequest {
		// The node declined one request and keeps serving.
		if r.err == nil || !strings.Contains(r.err.Error(), "refused") {
			t.Fatalf("err = %v, want the request refused", r.err)
		}
		if failures != 0 {
			t.Fatalf("a request-scoped OpErr failed the replica (%d failures)", failures)
		}
		return
	}
	if failures != 1 {
		t.Fatalf("hostile replica recorded %d failures, want 1 (a violation costs the connection)", failures)
	}
	switch kind.onLoss {
	case lossRedispatch:
		if r.err != nil {
			t.Fatalf("read did not fail over to the honest sibling: %v", r.err)
		}
		hc.check(t, r.out, r.reply)
	case lossSettle:
		if r.err != nil {
			t.Fatalf("write did not settle against the surviving writable member: %v", r.err)
		}
	case lossAbort:
		if r.err == nil || !strings.Contains(r.err.Error(), "interrupted") {
			t.Fatalf("err = %v, want the pinned op aborted", r.err)
		}
	}
}

// A reply whose op does not answer the request says so, rather than
// reporting a count mismatch against a rule that never applied.
func TestReplyOpMismatchIsNamed(t *testing.T) {
	keys := workload.SortedKeys(1000, 93)
	addr := scriptNode(t, keys, func(req Frame) []Frame {
		if req.Op == OpHello {
			return nil
		}
		return []Frame{{Op: OpCounts, ReqID: req.ReqID, Payload: make([]uint32, 3)}}
	})
	c, err := Dial([]string{addr}, keys, DialOptions{OpTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.ScanRange(keys[0], keys[10], -1, nil)
	if want := fmt.Sprintf("answered a scan_range request with op %d, want op %d", OpCounts, OpKeysDelta); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
}
