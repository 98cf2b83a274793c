// Quickstart: build a distributed in-cache index, run a query batch
// through each of the paper's five methods on the real runtime, verify
// they all agree, and ask the simulator and the analytical model for the
// paper's headline numbers.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/dcindex"
)

func main() {
	// The Table 1 index: 327,680 four-byte keys.
	keys := dcindex.GenerateKeys(327680, 1)
	queries := dcindex.GenerateQueries(1_000_000, 2)

	fmt.Println("== real runtime: five methods, one answer ==")
	var reference []int
	for _, m := range dcindex.Methods() {
		idx, err := dcindex.Open(keys, dcindex.Options{
			Method:  m,
			Workers: 8,
		})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		ranks, err := idx.RankBatch(queries)
		elapsed := time.Since(start)
		idx.Close()
		if err != nil {
			log.Fatal(err)
		}
		if reference == nil {
			reference = ranks
		} else {
			for i := range ranks {
				if ranks[i] != reference[i] {
					log.Fatalf("method %v disagrees at query %d", m, i)
				}
			}
		}
		fmt.Printf("  method %-3s  %8.1f ms  %6.1f Mkeys/s\n",
			m, float64(elapsed.Microseconds())/1000,
			float64(len(queries))/elapsed.Seconds()/1e6)
	}
	fmt.Println("  all methods returned identical ranks")

	// A single point lookup: which node owns a key, and its rank.
	idx, err := dcindex.Open(keys, dcindex.Options{Method: dcindex.MethodC3, Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()
	probe := keys[123456]
	rank, err := idx.Rank(probe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== point lookup ==\n  key %d: rank %d, owned by slave %d\n",
		probe, rank, idx.Owner(probe))

	// The simulator: the paper's Pentium III cluster, Table 3's point.
	fmt.Println("\n== simulated Pentium III cluster (Table 3's 128 KB point) ==")
	for _, m := range []dcindex.Method{dcindex.MethodA, dcindex.MethodB, dcindex.MethodC3} {
		r, err := dcindex.Simulate(dcindex.SimOptions{Method: m, SampleQueries: 200_000})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  method %-3s  %.3f s for 2^23 keys (normalized)\n", m, r.NormalizedSec)
	}

	// The analytical model: where is this going as hardware scales?
	fmt.Println("\n== Appendix A model: five-year projection ==")
	for _, pt := range dcindex.ProjectFigure4(dcindex.PentiumIII(), 5) {
		fmt.Printf("  year %.0f: A %5.1f  B %5.1f  C-3 %5.1f ns/key (B/C-3 = %.2fx)\n",
			pt.Year, pt.ANs, pt.BNs, pt.C3Ns, pt.BNs/pt.C3Ns)
	}
}
