package main

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultfs"
)

// A scripted exchange over a pipe is counted exactly on both ends and
// arrives unchanged.
func TestCountingConnCountsExactly(t *testing.T) {
	a, b := net.Pipe()
	var sent, received connCounts
	w, r := countingConn{a, &sent}, countingConn{b, &received}

	script := [][]byte{bytes.Repeat([]byte{1}, 10), bytes.Repeat([]byte{2}, 200), bytes.Repeat([]byte{3}, 3000)}
	var want []byte
	for _, p := range script {
		want = append(want, p...)
	}
	got := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		got <- data
	}()
	var blocked int64
	for i, p := range script {
		if n, err := w.Write(p); err != nil || n != len(p) {
			t.Fatalf("write %d: n=%d err=%v", i, n, err)
		}
		if now := sent.writeBlockNs.Load(); now < blocked {
			t.Fatalf("blocked time went backwards: %d then %d", blocked, now)
		} else {
			blocked = now
		}
	}
	w.Close()
	if data := <-got; !bytes.Equal(data, want) {
		t.Fatalf("wrapping changed the bytes: got %d, want %d", len(data), len(want))
	}
	if sent.writes.Load() != 3 || sent.bytesWritten.Load() != int64(len(want)) {
		t.Errorf("sender counted %d writes, %d bytes; want 3, %d", sent.writes.Load(), sent.bytesWritten.Load(), len(want))
	}
	if received.bytesRead.Load() != int64(len(want)) || received.reads.Load() < 3 {
		t.Errorf("receiver counted %d reads, %d bytes; want >= 3, %d", received.reads.Load(), received.bytesRead.Load(), len(want))
	}
	if sent.reads.Load() != 0 || received.writes.Load() != 0 {
		t.Errorf("idle directions counted: %d reads on the sender, %d writes on the receiver", sent.reads.Load(), received.writes.Load())
	}
}

// A scripted sequence of writes and syncs through the counting
// filesystem is counted exactly and leaves the bytes the plain one would.
func TestCountingFSCountsExactly(t *testing.T) {
	dir := t.TempDir()
	var c fsCounts
	fs := countingFS{faultfs.OS, &c}

	f, err := fs.OpenFile(filepath.Join(dir, "log"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"alpha", "beta"} {
		if _, err := f.Write([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tmp, err := fs.CreateTemp(dir, "seg-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("gamma")); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := faultfs.SyncDir(fs, dir); err != nil {
		t.Fatal(err)
	}

	if got := c.totals(); got != (fsTotals{writes: 3, bytesWritten: 14, syncs: 3}) {
		t.Errorf("counted %+v; want 3 writes, 14 bytes, 3 syncs", got)
	}
	if n := len(c.syncDurations()); n != 3 {
		t.Errorf("%d sync durations, want 3", n)
	}
	for name, want := range map[string]string{filepath.Join(dir, "log"): "alphabeta", tmp.Name(): "gamma"} {
		if data, err := os.ReadFile(name); err != nil || string(data) != want {
			t.Errorf("%s holds %q (%v), want %q", name, data, err, want)
		}
	}
}
