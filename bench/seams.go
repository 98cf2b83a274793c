package main

import (
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
)

// The seams count what crosses a layer boundary without touching the
// layer: a net.Conn handed to netrun through DialOptions.Dialer and a
// faultfs.FS handed to the durability layer through RealConfig.WALFS or
// index.StoreOptions.FS. Both pass every call straight through.

// connCounts is what a set of counting connections has carried. One
// value is shared by every connection of a cluster client.
type connCounts struct {
	writes, reads           atomic.Int64
	bytesWritten, bytesRead atomic.Int64
	// writeBlockNs is the time spent inside Write: the socket buffer
	// was full or the kernel was busy copying.
	writeBlockNs atomic.Int64
}

// connTotals is connCounts read at one instant.
type connTotals struct {
	writes, reads, bytesWritten, bytesRead, writeBlockNs int64
}

func (c *connCounts) totals() connTotals {
	return connTotals{c.writes.Load(), c.reads.Load(), c.bytesWritten.Load(), c.bytesRead.Load(), c.writeBlockNs.Load()}
}

// countingConn counts the calls and bytes of one connection.
type countingConn struct {
	net.Conn
	c *connCounts
}

func (cc countingConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := cc.Conn.Write(p)
	cc.c.writeBlockNs.Add(int64(time.Since(t0)))
	cc.c.writes.Add(1)
	cc.c.bytesWritten.Add(int64(n))
	return n, err
}

func (cc countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.reads.Add(1)
	cc.c.bytesRead.Add(int64(n))
	return n, err
}

// fsCounts is what a counting filesystem has written.
type fsCounts struct {
	writes, bytesWritten atomic.Int64

	mu     sync.Mutex
	syncNs []int64 // one entry per Sync, for the median
}

// fsTotals is fsCounts read at one instant; syncs is also the length of
// the duration list then.
type fsTotals struct {
	writes, bytesWritten int64
	syncs                int
}

func (c *fsCounts) totals() fsTotals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fsTotals{c.writes.Load(), c.bytesWritten.Load(), len(c.syncNs)}
}

// syncDurations returns a copy of the Sync durations seen so far.
func (c *fsCounts) syncDurations() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.syncNs...)
}

// countingFS counts the writes and syncs of every file opened through
// it. Directory syncs (faultfs.SyncDir opens the directory through
// OpenFile) count as syncs: they cost an fsync like any other.
type countingFS struct {
	faultfs.FS
	c *fsCounts
}

func (fs countingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{f, fs.c}, nil
}

func (fs countingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	f, err := fs.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return countingFile{f, fs.c}, nil
}

type countingFile struct {
	faultfs.File
	c *fsCounts
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.writes.Add(1)
	f.c.bytesWritten.Add(int64(n))
	return n, err
}

func (f countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	d := int64(time.Since(t0))
	f.c.mu.Lock()
	f.c.syncNs = append(f.c.syncNs, d)
	f.c.mu.Unlock()
	return err
}
