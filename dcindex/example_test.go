package dcindex_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/dcindex"
)

// The basic flow: build a distributed in-cache index over a sorted key
// set and resolve a batch of rank queries through the Method C-3
// pipeline.
func ExampleOpen() {
	keys := dcindex.GenerateKeys(100000, 1)
	idx, err := dcindex.Open(keys, dcindex.Options{
		Method:  dcindex.MethodC3,
		Workers: 4,
	})
	if err != nil {
		panic(err)
	}
	defer idx.Close()

	// Rank(k) = number of indexed keys <= k; it identifies the
	// sub-range (and owner node) for k.
	ranks, err := idx.RankBatch([]dcindex.Key{0, keys[41], ^dcindex.Key(0)})
	if err != nil {
		panic(err)
	}
	fmt.Println(ranks[0], ranks[1], ranks[2])
	// Output: 0 42 100000
}

// Reproduce one cell of the paper's Figure 3 on the simulated Pentium
// III cluster: Method C-3, 64 KB batches, 2^23 keys, 1 master + 10
// slaves.
func ExampleSimulate() {
	r, err := dcindex.Simulate(dcindex.SimOptions{
		Method:        dcindex.MethodC3,
		BatchBytes:    64 << 10,
		SampleQueries: 200_000, // steady-state sample; 0 = automatic
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("batch=%dKB nodes=%d\n", r.BatchBytes>>10, r.Nodes)
	fmt.Println("search time in the paper's band:", r.NormalizedSec > 0.20 && r.NormalizedSec < 0.30)
	// Output:
	// batch=64KB nodes=11
	// search time in the paper's band: true
}

// Query the Appendix A analytical model for the Figure 4 projection.
func ExampleProjectFigure4() {
	pts := dcindex.ProjectFigure4(dcindex.PentiumIII(), 5)
	first, last := pts[0], pts[len(pts)-1]
	fmt.Println("C-3 improves every year:", last.C3Ns < first.C3Ns)
	fmt.Println("B/C-3 advantage grows:", last.BNs/last.C3Ns > first.BNs/first.C3Ns)
	// Output:
	// C-3 improves every year: true
	// B/C-3 advantage grows: true
}

// Write a key set once as a snapshot file, the one dcnode's -keysfile and
// dcq's -keysfile read, and load it back: every node and client of a
// deployment then indexes exactly these keys.
func ExampleSaveKeys() {
	dir, err := os.MkdirTemp("", "dcindex-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "index.dcx")

	keys := dcindex.GenerateKeys(100000, 1)
	if err := dcindex.SaveKeys(path, keys); err != nil {
		panic(err)
	}
	loaded, err := dcindex.LoadKeys(path)
	if err != nil {
		panic(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		panic(err)
	}
	fmt.Println("keys:", len(loaded), "same as saved:", slices.Equal(loaded, keys))
	fmt.Println("file bytes:", st.Size())
	// Output:
	// keys: 100000 same as saved: true
	// file bytes: 400016
}
