package netrun

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
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
// directions: a peer older than MinProtoVersion — v6, whose byte codecs
// this build no longer speaks, and every version before it — is refused
// by name, never served and never downgraded to, while a connection that
// says no hello at all is served as before. A client also holds the ack
// to its two shapes, 6 and 8 words, and refuses by name any other.
func TestHelloRefusesPeerBelowFloor(t *testing.T) {
	keys := workload.SortedKeys(2000, 61)
	speaks := spoken()

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
		if want := fmt.Sprintf("the client speaks v%d, this build speaks %s", ver, speaks); !logs.has(want) {
			t.Fatalf("hello at v%d: no log line says %q: %q", ver, want, logs.lines)
		}
	}

	// (b) The client's side: each of these acks fails the dial by name —
	// the four words a version-1 node sends and one that names the
	// version below the floor (ErrProtoVersion both); the five words of an
	// earlier build's read-only node; 7 and 9 words; and a live count
	// below the baseline, which would underflow a durable generation.
	below := uint32(MinProtoVersion - 1)
	low := helloWords(keys, ProtoVersion, 6)
	low[5] = uint32(len(keys) - 1)
	for _, tc := range []struct {
		name  string
		ack   []uint32
		want  string
		proto bool
	}{
		{"v1", helloWords(keys, 0, 4), fmt.Sprintf("the node speaks v1, this build speaks %s", speaks), true},
		{"below the floor", helloWords(keys, below, 6), fmt.Sprintf("the node speaks v%d, this build speaks %s", below, speaks), true},
		{"read-only", helloWords(keys, ProtoVersion, 5), "a read-only node of an earlier build; this build has none", false},
		{"7 words", helloWords(keys, ProtoVersion, 7), fmt.Sprintf("bad hello ack (op %d, 7 words)", OpHelloAck), false},
		{"9 words", append(helloWords(keys, ProtoVersion, 8), 0), fmt.Sprintf("bad hello ack (op %d, 9 words)", OpHelloAck), false},
		{"low live count", low, fmt.Sprintf("live key count %d is below the node's baseline %d", len(keys)-1, len(keys)), false},
	} {
		stub := scriptNode(t, keys, func(req Frame) []Frame {
			return []Frame{{Op: OpHelloAck, ReqID: req.ReqID, Payload: tc.ack}}
		})
		c, err := Dial([]string{stub}, keys, DialOptions{})
		if err == nil {
			c.Close()
			t.Fatalf("Dial accepted a %s ack", tc.name)
		}
		if errors.Is(err, ErrProtoVersion) != tc.proto || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Dial against a %s ack: %v; want an error saying %q (ErrProtoVersion: %v)", tc.name, err, tc.want, tc.proto)
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
}

// TestHelloAckGoldenFrames pins the bytes of a writable node's 6-word
// hello ack and a durable node's 8-word one, at each version this build
// speaks, recorded from the build before the floor: between two
// writable peers the hello is what it was.
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
	for _, tc := range []struct {
		name  string
		n     *Node
		words string
		tail  string
	}{{"writable", mem, "06", writable}, {"durable", dur, "08", writable + chain}} {
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
