// Package faultfs is the filesystem seam the durability layer writes
// through. Production code uses OS, a thin veneer over the os package;
// tests wrap it in a Faulty to inject write and fsync failures at exact
// call ordinals, which is how the crash/fault harness proves that an
// insert is never acked unless its WAL record is durable and that a
// failed fsync poisons the log instead of silently dropping the ack
// guarantee.
package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"sync"
)

// File is the subset of *os.File the durability layer needs. Every
// method that can lose data on failure (Write, Sync, Truncate) routes
// through this interface so a Faulty wrapper can intercept it.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	io.Seeker
	Sync() error
	Truncate(size int64) error
	Chmod(mode os.FileMode) error
	Name() string
}

// FS is the directory-level surface: open/create/rename/remove plus the
// read-side helpers recovery uses to scan a store directory.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (os.FileInfo, error)
	MkdirAll(path string, perm os.FileMode) error
	RemoveAll(path string) error
	ReadFile(name string) ([]byte, error)
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }

// SyncDir fsyncs a directory so a just-created or just-renamed entry
// survives a crash. Rename-into-place is only atomic-and-durable once
// the parent directory's entry list is on disk.
func SyncDir(fsys FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// ErrInjected is the error every injected fault returns, so tests can
// errors.Is their way to "this failure was mine".
var ErrInjected = errors.New("faultfs: injected fault")

// Faulty wraps an FS and fails write or sync calls from a configured
// ordinal onward (a dying disk stays dead, which is exactly the sticky
// behaviour the WAL's broken-log handling must survive). Ordinals count
// calls across every file opened through the wrapper, starting at 1;
// zero disables injection.
type Faulty struct {
	inner FS

	mu          sync.Mutex
	writes      int
	bytes       int64
	syncs       int
	failWriteAt int
	failSyncAt  int
}

// NewFaulty wraps inner with no faults armed.
func NewFaulty(inner FS) *Faulty { return &Faulty{inner: inner} }

// FailWriteAt makes the nth write (1-based, counted FS-wide) and every
// later write fail with ErrInjected. n <= 0 disarms.
func (f *Faulty) FailWriteAt(n int) {
	f.mu.Lock()
	f.failWriteAt = n
	f.mu.Unlock()
}

// FailSyncAt makes the nth sync (1-based, counted FS-wide, including
// directory syncs) and every later sync fail with ErrInjected. n <= 0
// disarms.
func (f *Faulty) FailSyncAt(n int) {
	f.mu.Lock()
	f.failSyncAt = n
	f.mu.Unlock()
}

// Writes returns how many writes the wrapper has seen.
func (f *Faulty) Writes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

// Bytes returns how many bytes the writes that went through carried.
func (f *Faulty) Bytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bytes
}

// Syncs returns how many syncs the wrapper has seen.
func (f *Faulty) Syncs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs
}

func (f *Faulty) noteWrite(n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	if f.failWriteAt > 0 && f.writes >= f.failWriteAt {
		return ErrInjected
	}
	f.bytes += int64(n)
	return nil
}

func (f *Faulty) noteSync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	if f.failSyncAt > 0 && f.syncs >= f.failSyncAt {
		return ErrInjected
	}
	return nil
}

func (f *Faulty) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: inner, fs: f}, nil
}

func (f *Faulty) CreateTemp(dir, pattern string) (File, error) {
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: inner, fs: f}, nil
}

func (f *Faulty) Rename(oldpath, newpath string) error         { return f.inner.Rename(oldpath, newpath) }
func (f *Faulty) Remove(name string) error                     { return f.inner.Remove(name) }
func (f *Faulty) ReadDir(name string) ([]fs.DirEntry, error)   { return f.inner.ReadDir(name) }
func (f *Faulty) Stat(name string) (os.FileInfo, error)        { return f.inner.Stat(name) }
func (f *Faulty) MkdirAll(path string, perm os.FileMode) error { return f.inner.MkdirAll(path, perm) }
func (f *Faulty) RemoveAll(path string) error                  { return f.inner.RemoveAll(path) }
func (f *Faulty) ReadFile(name string) ([]byte, error)         { return f.inner.ReadFile(name) }

// faultyFile routes the loss-prone calls through the wrapper's fault
// counters and everything else straight down.
type faultyFile struct {
	File
	fs *Faulty
}

func (f *faultyFile) Write(p []byte) (int, error) {
	if err := f.fs.noteWrite(len(p)); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *faultyFile) Sync() error {
	if err := f.fs.noteSync(); err != nil {
		return err
	}
	return f.File.Sync()
}
