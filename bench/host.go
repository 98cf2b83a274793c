package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the checkout root,
// the directory that holds BENCHMARK.json. The benchmark is started
// with `go run -C bench .` (bench/run.sh), so the root is normally the
// parent.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no BENCHMARK.json in or above the working directory")
		}
		dir = parent
	}
}

// cpuTime returns the user+system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapAfterGC returns the live heap once garbage and pooled buffers are
// gone. Two collections: sync.Pool keeps a victim generation alive
// through the first.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cacheSizes reads cpu0's cache hierarchy from sysfs, e.g.
// "L1d 32K, L2 2048K, L3 16384K"; "unknown" where sysfs has none.
func cacheSizes() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var parts []string
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(b))
		}
		level, typ, size := read("level"), read("type"), read("size")
		if level == "" || size == "" || typ == "Instruction" {
			continue
		}
		suffix := ""
		if typ == "Data" {
			suffix = "d"
		}
		parts = append(parts, "L"+level+suffix+" "+size)
	}
	if len(parts) == 0 {
		return "unknown"
	}
	return strings.Join(parts, ", ")
}

// fsType names the filesystem that holds dir, from the longest mount
// point in /proc/mounts that is a prefix of it.
func fsType(dir string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if (dir == mnt || strings.HasPrefix(dir, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > len(best) {
			best, typ = mnt, f[2]
		}
	}
	return typ
}

// gitCommit returns the checkout's commit, or "unknown" outside a git
// repository (the driver's checkouts are plain directories).
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
