//go:build race

package netrun

// raceEnabled: the race detector makes sync.Pool drop a quarter of what it
// is handed, so a test that counts a pooled path's allocations skips.
const raceEnabled = true
