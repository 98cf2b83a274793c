package netrun

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/workload"
)

// logSink collects a node's Logf lines.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logSink) has(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			return true
		}
	}
	return false
}

// TestHelloRefusesPeerBelowFloor pins the compatibility floor in both
// directions: a peer older than MinProtoVersion is refused by name,
// never served and never downgraded to, while a connection that says no
// hello at all is served as before.
func TestHelloRefusesPeerBelowFloor(t *testing.T) {
	keys := workload.SortedKeys(2000, 61)
	spoken := fmt.Sprintf("v%d–v%d", MinProtoVersion, ProtoVersion)

	var logs logSink
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := NewPartitionNode(keys, 0)
	node.Logf = logs.logf
	go node.Serve(lis)
	defer node.Close()
	addr := lis.Addr().String()

	// (a) The node's side: a hello below the floor is answered OpErr, the
	// connection closed, the version logged.
	for ver := uint32(0); ver < MinProtoVersion; ver++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := WriteFrame(conn, Frame{Op: OpHello, ReqID: ver}); err != nil {
			t.Fatal(err)
		}
		f, err := ReadFrame(conn)
		if err != nil || f.Op != OpErr || len(f.Payload) != 1 || f.Payload[0] != uint32(OpHello) {
			t.Fatalf("hello at v%d: reply %+v, %v; want OpErr naming the hello", ver, f, err)
		}
		if _, err := ReadFrame(conn); !errors.Is(err, io.EOF) {
			t.Fatalf("hello at v%d: the connection stayed open (%v)", ver, err)
		}
		conn.Close()
		if want := fmt.Sprintf("the client speaks v%d, this build speaks %s", ver, spoken); !logs.has(want) {
			t.Fatalf("hello at v%d: no log line says %q: %q", ver, want, logs.lines)
		}
	}

	// (b) The client's side: an ack with the four words a version-1 node
	// sends, and one that names version 4, each fail the dial by name.
	for peer, ack := range map[uint32][]uint32{1: helloWords(keys, 0, 4), 4: helloWords(keys, 4, 5)} {
		stub := scriptNode(t, keys, func(req Frame) []Frame {
			return []Frame{{Op: OpHelloAck, ReqID: req.ReqID, Payload: ack}}
		})
		c, err := Dial([]string{stub}, keys, DialOptions{})
		if err == nil {
			c.Close()
			t.Fatalf("Dial accepted a v%d peer", peer)
		}
		if want := fmt.Sprintf("the node speaks v%d, this build speaks %s", peer, spoken); !errors.Is(err, ErrProtoVersion) || !strings.Contains(err.Error(), want) {
			t.Fatalf("Dial against a v%d peer: %v; want ErrProtoVersion saying %q", peer, err, want)
		}
	}

	// (c) No hello at all: the lookup is answered (the referee's probe
	// of a node's service time depends on it).
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(conn, Frame{Op: OpLookup, ReqID: 3, Payload: []uint32{uint32(keys[10]), uint32(keys[1999])}}); err != nil {
		t.Fatal(err)
	}
	if f, err := ReadFrame(conn); err != nil || f.Op != OpRanks || f.ReqID != 3 || len(f.Payload) != 2 || f.Payload[0] != 11 || f.Payload[1] != 2000 {
		t.Fatalf("hello-less lookup: reply %+v, %v; want ranks [11 2000]", f, err)
	}

	// (d) A MaxVersion outside what this build speaks is refused where it
	// is set: at Serve (dcnode's flag: TestDCNodeMaxVersionFlag).
	for _, v := range []uint32{1, 2, 3, 4, 7} {
		capped := NewPartitionNode(keys, 0)
		capped.MaxVersion = v
		l2, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := capped.Serve(l2); !errors.Is(err, ErrProtoVersion) {
			t.Fatalf("Serve with MaxVersion %d: %v, want ErrProtoVersion", v, err)
		}
		l2.Close()
		capped.Close()
	}
}

// TestHelloAckGoldenFrames pins the bytes of a writable node's 6-word
// hello ack and a durable node's 8-word one, at both versions this
// build speaks, recorded from the build before the floor: between two
// writable peers the hello is what it was. A read-only node's 5 words at
// these versions are the one new shape: the same ack, cut short.
func TestHelloAckGoldenFrames(t *testing.T) {
	const (
		head     = "88130000e803000000000000100c2b04" // rank base 5000, 1000 keys, bounds
		writable = "eb030000"                         // 1003 live keys
		chain    = "4f8574db83a6fb8c"
	)
	keys := make([]workload.Key, 1000)
	for i := range keys {
		keys[i] = workload.Key(i * 70000)
	}
	ins := []workload.Key{7, 70001, 4000000000}
	mem := NewPartitionNode(keys, 5000)
	mem.upd.InsertBatch(ins)
	dur, err := NewDurablePartitionNode(keys, 5000, t.TempDir(), index.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	if err := dur.dp.InsertBatch(ins); err != nil {
		t.Fatal(err)
	}
	ro := NewPartitionNode(keys, 5000)
	ro.ReadOnly = true
	for _, tc := range []struct {
		name  string
		n     *Node
		words string
		tail  string
	}{{"writable", mem, "06", writable}, {"durable", dur, "08", writable + chain}, {"read-only", ro, "05", ""}} {
		for ver := uint32(MinProtoVersion); ver <= ProtoVersion; ver++ {
			v := fmt.Sprintf("%02x000000", ver)
			var fw frameWriter
			req, err := fw.encode(Frame{Op: OpHello, ReqID: ver})
			if err != nil {
				t.Fatal(err)
			}
			var sent bytes.Buffer
			s := tc.n.newConn(nil)
			s.bc = newBufferedConn(duplex{bytes.NewReader(req), &sent})
			f, err := s.bc.readFrame()
			if err != nil {
				t.Fatal(err)
			}
			if !s.serve(f) {
				t.Fatal("the node dropped the connection")
			}
			want := "05201ddc02" + v + tc.words + "000000" + head + v + tc.tail
			if got := hex.EncodeToString(sent.Bytes()); got != want {
				t.Errorf("%s node, hello at v%d\n got %s\nwant %s", tc.name, ver, got, want)
			}
		}
	}
}

// TestMixedV5V6Pair is the one version-skew drill left: the previous
// protocol version beside the current one, on either side. Ranks, sorted
// ranks, inserts and all four query ops are oracle-exact across the
// pair; the three membership verbs, which version 6 introduced, are
// refused by name wherever a version-5 connection would have to carry
// them.
func TestMixedV5V6Pair(t *testing.T) {
	for name, tc := range map[string]struct {
		client uint32
		shape  func(part, replica int, n *Node)
	}{
		"v5-client": {client: ProtoV5},
		"v5-replica-per-group": {shape: func(_, replica int, n *Node) {
			if replica == 1 {
				n.MaxVersion = ProtoV5
			}
		}},
	} {
		t.Run(name, func(t *testing.T) {
			keys := workload.SortedKeys(8000, 63)
			maxKey := int(keys[len(keys)-1]) + 1
			if tc.client != 0 {
				setVar(t, &clientVersion, tc.client)
			}
			rc, shutdown := startShaped(t, keys, 2, 2, 256, DialOptions{}, tc.shape)
			defer shutdown()
			c := rc.c
			for _, h := range c.Stats().Replicas {
				want := uint32(ProtoV6)
				if tc.client == ProtoV5 || h.Addr == rc.addrs[h.Partition][1] {
					want = ProtoV5
				}
				if h.Proto != want {
					t.Fatalf("replica %s negotiated v%d, want v%d", h.Addr, h.Proto, want)
				}
			}

			o, qo := newTCPOracle(keys), newTCPQueryOracle(keys)
			rng := rand.New(rand.NewSource(64))
			qs := workload.UniformQueries(3000, 65)
			checkTCPExact(t, c, o, qs)
			checkTCPQueryOps(t, "static", c, qo, rng, maxKey)
			for round := 0; round < 3; round++ {
				ins := workload.UniformQueries(300, uint64(66+round))
				if err := c.InsertBatch(ins); err != nil {
					t.Fatal(err)
				}
				o.insert(ins)
				qo.add(ins)
				// Several passes, so the round-robin visits both versions.
				for pass := 0; pass < 3; pass++ {
					checkTCPExact(t, c, o, qs)
				}
				checkTCPQueryOps(t, "written", c, qo, rng, maxKey)
			}

			// The join node is one version behind too where the client is not.
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			join := NewJoinNode(keys)
			join.MaxVersion = ProtoV5
			go join.Serve(lis)
			defer join.Close()
			for verb, err := range map[string]error{
				"add_replica":     c.AddReplica(0, lis.Addr().String()),
				"drain_replica":   c.DrainReplica(0, rc.addrs[0][1]),
				"split_partition": c.SplitPartition(0),
			} {
				if err == nil || !strings.Contains(err.Error(), "speaks protocol v5; "+verb+" needs v6") {
					t.Fatalf("%s across the pair: err = %v, want it refused by name", verb, err)
				}
			}
			if got := c.Nodes(); got != 2 {
				t.Fatalf("Nodes = %d after the refused verbs, want 2", got)
			}
			checkTCPExact(t, c, o, qs)
			checkTCPQueryOps(t, "after the verbs", c, qo, rng, maxKey)
		})
	}
}
