package netrun

import (
	"bytes"
	"context"
	"encoding/hex"
	"io"
	"math"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func sortedCopy(qs []workload.Key) []workload.Key {
	out := append([]workload.Key(nil), qs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestTCPSortedChecksumIdenticalToUnsorted asserts the acceptance
// criterion end to end over sockets: the sorted pipeline (delta
// frames) returns results bit-identical to the same queries through
// the unsorted pipeline and to the in-process runtime.
func TestTCPSortedChecksumIdenticalToUnsorted(t *testing.T) {
	keys := workload.SortedKeys(32768, 34)
	unsorted := workload.UniformQueries(20000, 35)
	sorted := sortedCopy(unsorted)

	c, shutdown := startCluster(t, keys, 4, 1024)
	defer shutdown()

	ref, err := core.NewCluster(keys, core.RealConfig{Method: core.MethodC3, Workers: 4, BatchKeys: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	refSorted, err := ref.LookupBatch(sorted)
	if err != nil {
		t.Fatal(err)
	}
	gotSorted, err := c.LookupBatch(sorted)
	if err != nil {
		t.Fatal(err)
	}
	gotUnsorted, err := c.LookupBatch(unsorted)
	if err != nil {
		t.Fatal(err)
	}
	// Rank multiset must match between orders; compare sorted queries
	// index-by-index and unsorted through the reference rank.
	for i := range sorted {
		if gotSorted[i] != refSorted[i] {
			t.Fatalf("sorted rank[%d] = %d, want %d (in-process)", i, gotSorted[i], refSorted[i])
		}
	}
	for i, q := range unsorted {
		if want := workload.ReferenceRank(keys, q); gotUnsorted[i] != want {
			t.Fatalf("unsorted rank[%d] = %d, want %d", i, gotUnsorted[i], want)
		}
	}
	if benchChecksum(gotSorted) != benchChecksum(refSorted) {
		t.Fatal("sorted checksum diverged from in-process runtime")
	}
}

// duplex joins a reader and a writer into the ReadWriter a nodeConn's
// frame codec wants.
type duplex struct {
	io.Reader
	io.Writer
}

// serveOn is n's serving state for a connection that reads r and writes
// w, one that has not said hello.
func serveOn(n *Node, r io.Reader, w io.Writer) *nodeConn {
	s := n.newConn(nil)
	s.bc = newBufferedConn(duplex{r, w})
	return s
}

// TestSortedLookupGoldenFrames pins the bytes of one ascending lookup
// and its reply — an OpLookup word frame, which the node answers by the
// sorted kernel — recorded from the first build that sent an ascending
// run as words: repeated keys, keys below the smallest and above the
// largest key, a rank base. Frames are what old and new binaries share,
// so "the same bytes" is checked, not inferred.
func TestSortedLookupGoldenFrames(t *testing.T) {
	const (
		request = "05201ddc032a0000000c00000000000000000000006f11010070110100ef110100f0110100f0510100f0112100f0112100f5114100f5114110ffffffff"
		reply   = "05201ddc042a0000000c0000008913000089130000891300008a1300008a1300008a1300008a130000a7130000a7130000c51300007017000070170000"
	)
	keys := make([]workload.Key, 1000)
	for i := range keys {
		keys[i] = workload.Key(i * 70000)
	}
	qs := []uint32{0, 0, 69999, 70000, 70127, 70128, 86512, 2167280, 2167280, 4264437, 272699893, 0xFFFFFFFF}
	var fw frameWriter
	req, err := encodeRun(&fw, OpLookup, 42, qs)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(req); got != request {
		t.Fatalf("request frame\n got %s\nwant %s", got, request)
	}
	var sent bytes.Buffer
	s := serveOn(NewPartitionNode(keys, 5000), bytes.NewReader(req), &sent)
	f, err := s.bc.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !s.serve(f) {
		t.Fatal("the node dropped the connection")
	}
	if got := hex.EncodeToString(sent.Bytes()); got != reply {
		t.Fatalf("reply frame\n got %s\nwant %s", got, reply)
	}
}

// TestSortedLookupLargeFrame sends one 300,000-key ascending lookup — a
// reply frame above keepReplyScratch — through the serve path: the ranks
// are oracle-exact, the reply buffer is the request's one allocation
// (sized once by the encoder, not grown by doubling), and the connection
// keeps no scratch above the cap.
func TestSortedLookupLargeFrame(t *testing.T) {
	keys := workload.SortedKeys(50000, 71)
	qs := sortedCopy(workload.UniformQueries(300000, 72))
	words := make([]uint32, len(qs))
	for i, q := range qs {
		words[i] = uint32(q)
	}
	req := onWire(t, Frame{Op: OpLookup, ReqID: 9, Payload: words})

	var sent bytes.Buffer
	s := serveOn(NewPartitionNode(keys, 17), nil, &sent)
	if !s.serve(req) {
		t.Fatal("the node dropped the connection")
	}
	f, err := ReadFrame(&sent)
	if err != nil || f.Op != OpRanks || f.ReqID != 9 || len(f.Payload) != len(qs) {
		t.Fatalf("reply op %d reqID %d with %d ranks: %v", f.Op, f.ReqID, len(f.Payload), err)
	}
	for i, q := range qs {
		if want := 17 + workload.ReferenceRank(keys, q); int(f.Payload[i]) != want {
			t.Fatalf("rank[%d](%d) = %d, want %d", i, q, f.Payload[i], want)
		}
	}

	if frame := 13 + 4*len(qs); frame <= keepReplyScratch {
		t.Fatalf("a %d-byte reply frame is under the %d-byte cap: the frame is too small for this test", frame, keepReplyScratch)
	}
	s.bc = newBufferedConn(duplex{nil, io.Discard})
	if allocs := testing.AllocsPerRun(3, func() { s.serve(req) }); allocs != 1 {
		t.Errorf("%v allocations per oversized request, want 1 (the reply buffer)", allocs)
	}
	if cap(s.bc.fw.buf) > keepReplyScratch {
		t.Errorf("the connection kept %d bytes of reply frame, above the %d-byte cap", cap(s.bc.fw.buf), keepReplyScratch)
	}
}

// recordConn keeps a copy of every byte written to the connection.
type recordConn struct {
	net.Conn
	mu   sync.Mutex
	sent bytes.Buffer
}

func (r *recordConn) Write(b []byte) (int, error) {
	r.mu.Lock()
	r.sent.Write(b)
	r.mu.Unlock()
	return r.Conn.Write(b)
}

// TestTCPSortedCallSendsWords: an ascending 65,536-key call over two
// partitions goes out as OpLookup word frames — 4 payload bytes a key,
// the form an unsorted call takes — beside the one OpCountRange that asks
// partition 0 for its live key count, and its ranks are the upper
// bounds: duplicate queries, queries below the first key and above the
// last, and queries of a key whose copies sit at the partition boundary,
// once where the cut moves off the run and once where it splits it.
func TestTCPSortedCallSendsWords(t *testing.T) {
	const run = 71000
	atCut := make([]workload.Key, 40000)
	for i := range atCut {
		switch {
		case i < 10000:
			atCut[i] = workload.Key(1000 + 7*i)
		case i < 31000:
			atCut[i] = run
		default:
			atCut[i] = workload.Key(run + 1 + 5*(i-31000))
		}
	}
	// A run is cut only when it fills the whole span the cut may move
	// in: with two partitions, every key.
	split := slices.Repeat([]workload.Key{run}, 40000)
	for _, tc := range []struct {
		name string
		keys []workload.Key
	}{{"run-at-cut", atCut}, {"run-split", split}} {
		t.Run(tc.name, func(t *testing.T) { sortedCallSendsWords(t, tc.keys, run, tc.name == "run-split") })
	}
}

func sortedCallSendsWords(t *testing.T, keys []workload.Key, run workload.Key, split bool) {
	p, err := core.NewPartitioning(keys, 2)
	if err != nil {
		t.Fatal(err)
	}
	below, above := p.Parts[0].Keys, p.Parts[1].Keys
	if above[0] != run || (below[len(below)-1] == run) != split {
		t.Fatalf("partitions end at %d and start at %d: the boundary is not the run of %d the test wants (split %v)",
			below[len(below)-1], above[0], run, split)
	}

	rng := rand.New(rand.NewSource(73))
	lo, hi := keys[0], keys[len(keys)-1]
	qs := make([]workload.Key, 0, 1<<16)
	for range 100 {
		qs = append(qs, 0, workload.Key(rng.Intn(int(lo))), run-1, run+1, hi+1+workload.Key(rng.Intn(1<<20)), 0xFFFFFFFF)
	}
	for range 5000 {
		qs = append(qs, run)
	}
	for len(qs) < 1<<16 {
		qs = append(qs, workload.Key(rng.Intn(int(hi)+1000)))
	}
	slices.Sort(qs)

	var mu sync.Mutex
	var conns []*recordConn
	c, shutdown := startClusterWith(t, keys, 2, DialOptions{
		Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
			conn, err := new(net.Dialer).DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			rc := &recordConn{Conn: conn}
			mu.Lock()
			conns = append(conns, rc)
			mu.Unlock()
			return rc, nil
		}})
	defer shutdown()
	got, err := c.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if want := workload.ReferenceRank(keys, q); got[i] != want {
			t.Fatalf("rank[%d](%d) = %d, want %d", i, q, got[i], want)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	frames, sentKeys, sentBytes, counts := 0, 0, 0, 0
	for _, rc := range conns {
		rc.mu.Lock()
		stream := bytes.NewReader(slices.Clone(rc.sent.Bytes()))
		rc.mu.Unlock()
		for stream.Len() > 0 {
			before := stream.Len()
			f, err := ReadFrame(stream)
			if err != nil {
				t.Fatal(err)
			}
			switch f.Op {
			case OpHello:
			case OpLookup:
				frames++
				sentKeys += len(f.Payload)
				sentBytes += before - stream.Len()
			case OpCountRange:
				// Partition 0's live key count, which rebases partition 1.
				counts++
				if !slices.Equal(f.Payload, []uint32{0, math.MaxUint32}) {
					t.Fatalf("the call asked a count of %v, want the key space [0 %d]", f.Payload, uint32(math.MaxUint32))
				}
			default:
				t.Fatalf("the call sent an op %d frame, want only OpLookup (%d) and OpCountRange (%d)", f.Op, OpLookup, OpCountRange)
			}
		}
	}
	if counts != 1 {
		t.Fatalf("the call sent %d OpCountRange frames, want 1: partition 0's live key count", counts)
	}
	if sentKeys != len(qs) || sentBytes != 13*frames+4*len(qs) {
		t.Fatalf("%d OpLookup frames carried %d keys in %d bytes, want %d keys in %d bytes (a 13-byte header, then 4 bytes a key)",
			frames, sentKeys, sentBytes, len(qs), 13*frames+4*len(qs))
	}
}

// TestTCPCutRunAsksOnePartition: over cutRunKeys on four partitions,
// where the run of 500 fills partition 1 and the cuts on both its sides
// fall inside the run (delimiters 500, 500, 1096), MultiGet(500),
// CountRange(500, 500) and ScanRange(500, 500, -1) each send one request
// frame, to partition 2, which 500 routes to, and still answer all 86
// copies: the 40 under partition 2 are a count of the routing table.
func TestTCPCutRunAsksOnePartition(t *testing.T) {
	var mu sync.Mutex
	conns := map[string]*recordConn{}
	c, shutdown := startClusterWith(t, cutRunKeys(), 4, DialOptions{
		Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
			conn, err := new(net.Dialer).DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			rc := &recordConn{Conn: conn}
			mu.Lock()
			conns[addr] = rc
			mu.Unlock()
			return rc, nil
		}})
	defer shutdown()
	if s := c.part.Load().Route(500); s != 2 {
		t.Fatalf("500 routes to partition %d, want 2", s)
	}
	c.mu.Lock()
	groups := slices.Clone(c.groups)
	c.mu.Unlock()
	sent := func(addr string) []byte {
		mu.Lock()
		rc := conns[addr]
		mu.Unlock()
		rc.mu.Lock()
		defer rc.mu.Unlock()
		return slices.Clone(rc.sent.Bytes())
	}

	for _, tc := range []struct {
		name string
		op   uint8
		call func() (int, error)
	}{
		{"MultiGet", OpMultiGet, func() (int, error) {
			muls, err := c.MultiGet([]workload.Key{500})
			if err != nil {
				return 0, err
			}
			return muls[0], nil
		}},
		{"CountRange", OpCountRange, func() (int, error) { return c.CountRange(500, 500) }},
		{"ScanRange", OpScanRange, func() (int, error) {
			scan, err := c.ScanRange(500, 500, -1, nil)
			return len(scan), err
		}},
	} {
		before := map[string]int{}
		for _, g := range groups {
			for _, addr := range g {
				before[addr] = len(sent(addr))
			}
		}
		if n, err := tc.call(); err != nil || n != 86 {
			t.Fatalf("%s of 500 answered %d (err %v), want 86", tc.name, n, err)
		}
		frames := 0
		for gi, g := range groups {
			for _, addr := range g {
				stream := bytes.NewReader(sent(addr)[before[addr]:])
				for stream.Len() > 0 {
					f, err := ReadFrame(stream)
					if err != nil {
						t.Fatal(err)
					}
					if f.Op != tc.op || gi != 2 {
						t.Fatalf("%s of 500 sent an op %d frame to partition %d, want op %d frames to partition 2 only", tc.name, f.Op, gi, tc.op)
					}
					frames++
				}
			}
		}
		if frames != 1 {
			t.Fatalf("%s of 500 sent %d frames, want 1", tc.name, frames)
		}
	}
}

// TestLookupFrameKernelFromKeys drives OpLookup frames through a
// connection's serve path: the node takes the sorted kernel when a
// frame's keys ascend and the batch kernel otherwise, with no flag on
// the wire. An ascending frame and one of equal keys take the first, a
// frame that descends only at its last key the second; each is answered
// exactly, as words.
func TestLookupFrameKernelFromKeys(t *testing.T) {
	keys := workload.SortedKeys(50000, 74)
	keys = slices.Concat(keys[:20000], slices.Repeat(keys[20000:20001], 3000), keys[20000:])
	asc := sortedCopy(workload.UniformQueries(20000, 75))
	frames := map[string][]workload.Key{
		"ascending":        asc,
		"descends-at-last": append(slices.Clone(asc), 0),
		"all-equal":        slices.Repeat(keys[20000:20001], 4096),
	}
	s := NewPartitionNode(keys, 17).newConn(nil)
	for name, qs := range frames {
		t.Run(name, func(t *testing.T) {
			words := make([]uint32, len(qs))
			for i, q := range qs {
				words[i] = uint32(q)
			}
			var req, sent bytes.Buffer
			if err := WriteFrame(&req, Frame{Op: OpLookup, ReqID: 11, Payload: words}); err != nil {
				t.Fatal(err)
			}
			s.bc = newBufferedConn(duplex{&req, &sent})
			f, err := s.bc.readFrame()
			if err != nil {
				t.Fatal(err)
			}
			if !s.serve(f) {
				t.Fatal("the node dropped the connection")
			}
			f, err = ReadFrame(&sent)
			if err != nil || f.Op != OpRanks || f.ReqID != 11 || len(f.Payload) != len(qs) {
				t.Fatalf("reply op %d reqID %d with %d ranks: %v", f.Op, f.ReqID, len(f.Payload), err)
			}
			for i, q := range qs {
				if want := 17 + workload.ReferenceRank(keys, q); int(f.Payload[i]) != want {
					t.Fatalf("rank[%d](%d) = %d, want %d", i, q, f.Payload[i], want)
				}
			}
		})
	}
}
