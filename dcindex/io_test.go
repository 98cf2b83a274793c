package dcindex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netrun"
	"repro/internal/workload"
)

func TestSnapshotRoundTrip(t *testing.T) {
	keys := GenerateKeys(50000, 1)
	var buf bytes.Buffer
	if err := WriteKeys(&buf, keys); err != nil {
		t.Fatal(err)
	}
	got, err := ReadKeys(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("key %d differs", i)
		}
	}
}

func TestSnapshotEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteKeys(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadKeys(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v %v", got, err)
	}
}

func TestSnapshotRejectsUnsorted(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteKeys(&buf, []Key{5, 3}); err == nil {
		t.Fatal("unsorted write accepted")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	keys := GenerateKeys(100, 2)
	var buf bytes.Buffer
	if err := WriteKeys(&buf, keys); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xFF
	if _, err := ReadKeys(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: %v", err)
	}
	// Bad version.
	bad = append([]byte(nil), raw...)
	bad[4] = 99
	if _, err := ReadKeys(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: %v", err)
	}
	// Truncated body.
	if _, err := ReadKeys(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Error("truncation accepted")
	}
	// Unsorted payload (flip two keys in place).
	bad = append([]byte(nil), raw...)
	copy(bad[16:20], raw[20:24])
	copy(bad[20:24], raw[16:20])
	if _, err := ReadKeys(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "sorted") {
		t.Errorf("unsorted payload: %v", err)
	}
}

func TestSaveLoadKeysFile(t *testing.T) {
	keys := GenerateKeys(10000, 3)
	path := filepath.Join(t.TempDir(), "index.dcx")
	if err := SaveKeys(path, keys); err != nil {
		t.Fatal(err)
	}
	got, err := LoadKeys(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("key %d differs after file round trip", i)
		}
	}
}

// End-to-end: snapshot -> nodes over TCP -> DialClusterOptions -> correct
// ranks.
func TestTCPDeploymentEndToEnd(t *testing.T) {
	keys := GenerateKeys(8000, 4)
	path := filepath.Join(t.TempDir(), "index.dcx")
	if err := SaveKeys(path, keys); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadKeys(path)
	if err != nil {
		t.Fatal(err)
	}

	const parts = 4
	p, err := core.NewPartitioning(loaded, parts)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	var nodes []*netrun.Node
	for i := 0; i < parts; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n := netrun.NewPartitionNode(p.Parts[i].Keys, p.Parts[i].RankBase)
		nodes = append(nodes, n)
		addrs = append(addrs, lis.Addr().String())
		go n.Serve(lis)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	c, err := DialClusterOptions(addrs, loaded, TCPOptions{BatchKeys: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Nodes() != parts {
		t.Fatalf("nodes = %d", c.Nodes())
	}

	queries := GenerateQueries(5000, 5)
	deadline := time.Now().Add(10 * time.Second)
	ranks, err := c.LookupBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	if time.Now().After(deadline) {
		t.Fatal("lookup took too long")
	}
	for i, q := range queries {
		if want := workload.ReferenceRank(keys, q); ranks[i] != want {
			t.Fatalf("rank[%d] = %d, want %d", i, ranks[i], want)
		}
	}
}

// TestSnapshotTruncatedMidKeyError cuts a snapshot file in the middle
// of a key and wants the load error to name the file and both sides of
// the shortfall — an operator diagnosing a bad copy needs "got X of Y
// bytes in <path>", not a bare unexpected-EOF.
func TestSnapshotTruncatedMidKeyError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.dcx")
	keys := GenerateKeys(1000, 7)
	if err := SaveKeys(path, keys); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := int64(len(data)) // 16 + 4*1000
	cut := data[:16+4*123+2]      // mid-way through key 123
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadKeys(path)
	if err == nil {
		t.Fatal("truncated snapshot loaded")
	}
	msg := err.Error()
	for _, want := range []string{
		path,                              // which file
		"truncated",                       // what happened
		fmt.Sprintf("want %d", wantBytes), // expected byte count
		fmt.Sprintf("(%d bytes on disk)", len(cut)), // actual byte count
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q does not mention %q", msg, want)
		}
	}
	// The unbuffered decode path (ReadKeys over a stream) reports the
	// same shortfall arithmetic without a path to name.
	_, err = ReadKeys(bytes.NewReader(cut))
	if err == nil || !strings.Contains(err.Error(), "truncated at key 123 of 1000") {
		t.Fatalf("ReadKeys error %v, want the key-level truncation position", err)
	}
}

// A hostile header claiming ~2^32 keys over a tiny body must fail with
// a truncation error quickly — without attempting the ~16 GiB up-front
// allocation the count implies.
func TestSnapshotHostileCountDoesNotPreallocate(t *testing.T) {
	head := make([]byte, 16)
	binary.LittleEndian.PutUint32(head[0:4], snapshotMagic)
	binary.LittleEndian.PutUint32(head[4:8], snapshotVersion)
	binary.LittleEndian.PutUint64(head[8:16], (1<<32)-1)
	body := append(head, make([]byte, 64)...) // 16 of the claimed ~4G keys

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadKeys(bytes.NewReader(body))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want truncation", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<22 {
		t.Fatalf("ReadKeys allocated %d bytes for a hostile header, want bounded", grew)
	}
	// A count beyond the 2^32 key-space cap is rejected outright.
	binary.LittleEndian.PutUint64(head[8:16], 1<<33)
	if _, err := ReadKeys(bytes.NewReader(head)); err == nil || !strings.Contains(err.Error(), "claims") {
		t.Fatalf("err = %v, want claim rejection", err)
	}
}

// TestSaveKeysConcurrent hammers one snapshot path from many savers:
// with the old fixed path+".tmp" name, two writers interleaved on the
// same temp file and could rename a corrupted mix into place. Unique
// temp names mean every rename installs one saver's complete snapshot.
func TestSaveKeysConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.dcx")

	const savers = 8
	const rounds = 6
	sets := make([][]Key, savers)
	for s := range sets {
		sets[s] = GenerateKeys(4000+100*s, uint64(40+s))
	}
	var wg sync.WaitGroup
	errs := make([]error, savers)
	for s := 0; s < savers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := SaveKeys(path, sets[s]); err != nil {
					errs[s] = err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("saver %d: %v", s, err)
		}
	}

	// The installed snapshot must be exactly one saver's key set.
	got, err := LoadKeys(path)
	if err != nil {
		t.Fatalf("snapshot corrupted by concurrent savers: %v", err)
	}
	match := false
	for _, set := range sets {
		if len(set) != len(got) {
			continue
		}
		same := true
		for i := range set {
			if set[i] != got[i] {
				same = false
				break
			}
		}
		if same {
			match = true
			break
		}
	}
	if !match {
		t.Fatalf("loaded snapshot (%d keys) matches no saver's key set", len(got))
	}

	// No temp litter left behind: every saver's CreateTemp file must
	// have been renamed into place or removed.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "index.dcx" {
			t.Fatalf("leftover file %q", e.Name())
		}
	}
}

// TestSaveKeysWriteErrorLeavesTargetIntact: a failed save (unsorted
// input) must neither touch an existing good snapshot nor leak a temp.
func TestSaveKeysWriteErrorLeavesTargetIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.dcx")
	good := GenerateKeys(1000, 50)
	if err := SaveKeys(path, good); err != nil {
		t.Fatal(err)
	}
	if err := SaveKeys(path, []Key{5, 3}); err == nil {
		t.Fatal("unsorted save succeeded")
	}
	got, err := LoadKeys(path)
	if err != nil || len(got) != len(good) {
		t.Fatalf("good snapshot damaged: %v (%d keys)", err, len(got))
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("leftover files after failed save: %v", entries)
	}
}

// TestDialClusterReplicated drives the public replicated surface:
// grouped "addr|addr" address syntax, failover on replica death, and
// Health reporting — dcindex.DialClusterOptions over real sockets.
func TestDialClusterReplicated(t *testing.T) {
	keys := GenerateKeys(8000, 51)
	const parts = 2
	p, err := core.NewPartitioning(keys, parts)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([][]*netrun.Node, parts)
	addrs := make([][]string, parts)
	for i := 0; i < parts; i++ {
		for r := 0; r < 2; r++ {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			n := netrun.NewPartitionNode(p.Parts[i].Keys, p.Parts[i].RankBase)
			nodes[i] = append(nodes[i], n)
			addrs[i] = append(addrs[i], lis.Addr().String())
			go n.Serve(lis)
		}
	}
	defer func() {
		for _, reps := range nodes {
			for _, n := range reps {
				n.Close()
			}
		}
	}()

	grouped := []string{
		addrs[0][0] + "|" + addrs[0][1],
		addrs[1][0] + "|" + addrs[1][1],
	}
	c, err := DialClusterOptions(grouped, keys, TCPOptions{BatchKeys: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	queries := GenerateQueries(5000, 52)
	check := func() {
		t.Helper()
		ranks, err := c.LookupBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			if want := workload.ReferenceRank(keys, q); ranks[i] != want {
				t.Fatalf("rank[%d] = %d, want %d", i, ranks[i], want)
			}
		}
	}
	check()
	if h := c.Stats().Replicas; len(h) != 4 {
		t.Fatalf("Stats().Replicas rows = %d, want 4", len(h))
	}

	// One replica dies; the cluster keeps answering, with no error.
	nodes[0][0].Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		check()
		var dead *ReplicaStats
		for _, h := range c.Stats().Replicas {
			if h.Partition == 0 && h.Addr == addrs[0][0] {
				h := h
				dead = &h
			}
		}
		if dead != nil && !dead.Healthy && dead.Failures > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica death never surfaced in Stats().Replicas")
		}
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cluster terminal after single-replica death: %v", err)
	}
}

// TestSaveKeysPermissions: snapshots are distributed to every node and
// client, so a fresh save must be world-readable (0644, not CreateTemp's
// 0600) while an overwrite preserves a deliberately tightened mode.
func TestSaveKeysPermissions(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("unix permission semantics")
	}
	path := filepath.Join(t.TempDir(), "index.dcx")
	if err := SaveKeys(path, GenerateKeys(100, 60)); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Fatalf("new snapshot mode %v, want 0644", st.Mode().Perm())
	}
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := SaveKeys(path, GenerateKeys(200, 61)); err != nil {
		t.Fatal(err)
	}
	if st, err = os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o600 {
		t.Fatalf("overwritten snapshot mode %v, want preserved 0600", st.Mode().Perm())
	}
}
