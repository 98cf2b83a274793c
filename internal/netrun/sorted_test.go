package netrun

import (
	"bytes"
	"encoding/hex"
	"io"
	"sort"
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

	ref, err := core.NewCluster(keys, core.RealConfig{Method: core.MethodC3, Workers: 4, BatchKeys: 1024, QueueDepth: 4})
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

// TestSortedLookupGoldenFrames pins the bytes of one sorted lookup and
// its reply, recorded from the build before the delta codec's loops were
// unrolled: varints of every length, repeated keys, keys below the
// smallest and above the largest key, a rank base. Frames are what old
// and new binaries share, so "the same bytes" is checked, not inferred.
func TestSortedLookupGoldenFrames(t *testing.T) {
	const (
		request = "05201ddc062a0000001e0000000c0000efa204017f0180800180807f008580800180808080018adcfbfd0e"
		reply   = "05201ddc072a0000000f0000000c89270000010000001d001eab0700"
	)
	keys := make([]workload.Key, 1000)
	for i := range keys {
		keys[i] = workload.Key(i * 70000)
	}
	qs := []uint32{0, 0, 69999, 70000, 70127, 70128, 86512, 2167280, 2167280, 4264437, 272699893, 0xFFFFFFFF}
	var fw frameWriter
	req, err := fw.encodeDeltaOp(OpLookupSorted, 42, qs)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(req); got != request {
		t.Fatalf("request frame\n got %s\nwant %s", got, request)
	}
	var sent bytes.Buffer
	s := NewPartitionNode(keys, 5000).newConn(nil)
	s.bc = newBufferedConn(duplex{bytes.NewReader(req), &sent})
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

// TestSortedLookupLargeFrame sends one 300,000-key sorted lookup — a
// reply whose worst-case encoding is above keepReplyScratch — through a
// connection's serve path: the ranks are oracle-exact, the reply buffer
// is the request's one allocation (sized once by the encoder, not grown
// by doubling), and the connection keeps no scratch above the cap.
func TestSortedLookupLargeFrame(t *testing.T) {
	keys := workload.SortedKeys(50000, 71)
	qs := sortedCopy(workload.UniformQueries(300000, 72))
	words := make([]uint32, len(qs))
	for i, q := range qs {
		words[i] = uint32(q)
	}
	raw, err := appendDeltaRun(nil, words)
	if err != nil {
		t.Fatal(err)
	}
	req := Frame{Op: OpLookupSorted, ReqID: 9, Raw: raw}

	var sent bytes.Buffer
	s := NewPartitionNode(keys, 17).newConn(nil)
	s.bc = newBufferedConn(duplex{nil, &sent})
	if !s.serve(req) {
		t.Fatal("the node dropped the connection")
	}
	f, err := ReadFrame(&sent)
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := decodeDeltaRun[uint32](f.Raw, nil)
	if err != nil || f.Op != OpRanksDelta || f.ReqID != 9 || len(ranks) != len(qs) {
		t.Fatalf("reply op %d reqID %d with %d ranks: %v", f.Op, f.ReqID, len(ranks), err)
	}
	for i, q := range qs {
		if want := 17 + workload.ReferenceRank(keys, q); int(ranks[i]) != want {
			t.Fatalf("rank[%d](%d) = %d, want %d", i, q, ranks[i], want)
		}
	}

	if worst := 5 + 5*len(qs); worst <= keepReplyScratch {
		t.Fatalf("a %d-byte worst case is under the %d-byte cap: the frame is too small for this test", worst, keepReplyScratch)
	}
	s.bc = newBufferedConn(duplex{nil, io.Discard})
	if allocs := testing.AllocsPerRun(3, func() { s.serve(req) }); allocs != 1 {
		t.Errorf("%v allocations per oversized request, want 1 (the reply buffer)", allocs)
	}
	if cap(s.bc.fw.buf) > keepReplyScratch {
		t.Errorf("the connection kept %d bytes of reply frame, above the %d-byte cap", cap(s.bc.fw.buf), keepReplyScratch)
	}
}
