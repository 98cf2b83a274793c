package repro_test

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netrun"
	"repro/internal/workload"
)

// startDurableDCNode launches a dcnode with -wal-dir on an ephemeral
// port and returns its address and process. Unlike startDCNode it keeps
// draining stderr after the address line (recovery logging continues)
// and hands the full log back through a pointer for later inspection.
func startDurableDCNode(t *testing.T, bin, walDir string, n, seed, parts, part int) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin,
		"-n", fmt.Sprint(n), "-seed", fmt.Sprint(seed),
		"-parts", fmt.Sprint(parts), "-part", fmt.Sprint(part),
		"-wal-dir", walDir,
		"-listen", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent {
				if i := strings.LastIndex(line, " on 127.0.0.1:"); i >= 0 {
					addrc <- strings.TrimSpace(line[i+len(" on "):])
					sent = true
				}
			}
		}
		if !sent {
			close(addrc)
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case addr, ok := <-addrc:
		if !ok || addr == "" {
			t.Fatalf("durable dcnode (part %d) never reported its address", part)
		}
		return addr, cmd
	case <-time.After(30 * time.Second):
		t.Fatalf("durable dcnode (part %d) startup timed out", part)
	}
	return "", nil
}

// TestDCNodeKillNineDurability is the process-level durability proof:
// a real dcnode with -wal-dir takes an insert burst, is SIGKILLed mid-
// burst (no shutdown hook runs — exactly a crash), and is restarted on
// the same WAL directory. Every insert that was acked before the kill
// must be present afterwards; keys that were never submitted must be
// absent. The batch in flight at the kill instant is allowed either
// outcome, but atomically: one batch is one WAL record.
func TestDCNodeKillNineDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	gobin := goTool(t)
	bindir := t.TempDir()
	dcnode := filepath.Join(bindir, "dcnode")
	if out, err := exec.Command(gobin, "build", "-o", dcnode, "./cmd/dcnode").CombinedOutput(); err != nil {
		t.Fatalf("build dcnode: %v\n%s", err, out)
	}

	const (
		n, seed   = 4096, 1
		batchSize = 64
		killAfter = 12 // acked batches before the SIGKILL
	)
	baseline := workload.SortedKeys(n, seed)
	walDir := t.TempDir()
	addr, cmd := startDurableDCNode(t, dcnode, walDir, n, seed, 1, 0)

	c, err := netrun.Dial([]string{addr}, baseline, netrun.DialOptions{BatchKeys: 512})
	if err != nil {
		t.Fatal(err)
	}

	// Batch i holds keys 1<<20 + i*batchSize ... — distinct across
	// batches, so multiplicity checks are unambiguous.
	batchKeys := func(i int) []workload.Key {
		out := make([]workload.Key, batchSize)
		for j := range out {
			out[j] = workload.Key(1<<20 + i*batchSize + j)
		}
		return out
	}

	var acked atomic.Int64
	insertErr := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			if err := c.InsertBatch(batchKeys(i)); err != nil {
				insertErr <- err
				return
			}
			acked.Add(1)
		}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for acked.Load() < killAfter {
		if time.Now().After(deadline) {
			t.Fatalf("only %d batches acked before timeout", acked.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		t.Fatal(err)
	}
	cmd.Wait()
	// The inserter dies with the connection; whatever it last sent was
	// never acked.
	select {
	case <-insertErr:
	case <-time.After(30 * time.Second):
		t.Fatal("inserter kept acking against a SIGKILLed node")
	}
	ackedN := int(acked.Load())
	c.Close()

	// Restart on the same WAL directory: crash recovery.
	addr2, _ := startDurableDCNode(t, dcnode, walDir, n, seed, 1, 0)
	c2, err := netrun.Dial([]string{addr2}, baseline, netrun.DialOptions{BatchKeys: 512})
	if err != nil {
		t.Fatalf("dial restarted node: %v", err)
	}
	defer c2.Close()

	multiplicity := func(k workload.Key) int {
		lo, err := c2.LookupBatch([]workload.Key{k - 1, k})
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		return lo[1] - lo[0]
	}
	baseCount := func(k workload.Key) int {
		n := 0
		for _, b := range baseline {
			if b == k {
				n++
			}
		}
		return n
	}
	// Every acked batch: present, exactly once per key.
	for i := 0; i < ackedN; i++ {
		for _, k := range batchKeys(i) {
			if got, want := multiplicity(k), baseCount(k)+1; got != want {
				t.Fatalf("acked key %d (batch %d): multiplicity %d, want %d — an acked insert was lost",
					k, i, got, want)
			}
		}
	}
	// The in-flight batch: all-or-nothing.
	inflight := batchKeys(ackedN)
	have := 0
	for _, k := range inflight {
		have += multiplicity(k) - baseCount(k)
	}
	if have != 0 && have != batchSize {
		t.Fatalf("in-flight batch partially recovered: %d of %d keys (a WAL record must be atomic)", have, batchSize)
	}
	// Batches that were never sent: absent.
	for _, k := range batchKeys(ackedN + 2) {
		if got, want := multiplicity(k), baseCount(k); got != want {
			t.Fatalf("never-submitted key %d present after restart (multiplicity %d, want %d)", k, got, want)
		}
	}
}

// TestDCNodeRefusesFormatV1WALDir: a -wal-dir written by a build from
// before the shared log (format v1: its log file says version 1) is not
// damage to repair. dcnode exits with an error that names both format
// versions and leaves the directory byte for byte as it found it —
// nothing quarantined, no fresh log cut beside the old one.
func TestDCNodeRefusesFormatV1WALDir(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dcnode := filepath.Join(t.TempDir(), "dcnode")
	if out, err := exec.Command(goTool(t), "build", "-o", dcnode, "./cmd/dcnode").CombinedOutput(); err != nil {
		t.Fatalf("build dcnode: %v\n%s", err, out)
	}
	walDir := t.TempDir()
	files := map[string][]byte{
		// magic, version 1, base generation 0, base fold (FNV offset basis)
		"wal-00000000000000000001.wal": {0x41, 0x3a, 0x1d, 0xdc, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			0x25, 0x23, 0x22, 0x84, 0xe4, 0x9c, 0xf2, 0xcb},
		"seg-00000000000000000000.seg": []byte("a v1 segment"),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(walDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := exec.Command(dcnode, "-n", "4096", "-seed", "1", "-parts", "1", "-part", "0",
		"-wal-dir", walDir, "-listen", "127.0.0.1:0").CombinedOutput()
	if err == nil {
		t.Fatalf("dcnode served from a v1 directory:\n%s", out)
	}
	if msg := string(out); !strings.Contains(msg, "format v1") || !strings.Contains(msg, "reads v2") {
		t.Fatalf("refusal does not name both format versions:\n%s", msg)
	}
	ents, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(files) {
		t.Fatalf("directory holds %d entries after the refusal, want the %d written", len(ents), len(files))
	}
	for name, want := range files {
		if got, err := os.ReadFile(filepath.Join(walDir, name)); err != nil || string(got) != string(want) {
			t.Fatalf("%s changed (err %v)", name, err)
		}
	}
}
