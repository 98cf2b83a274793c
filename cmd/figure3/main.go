// Command figure3 regenerates Figure 3 of the paper: normalized search
// time for 2^23 random keys over 11 nodes, for Methods A, B, C-1, C-2
// and C-3, across batch sizes from 8 KB to 4 MB.
//
// By default each configuration simulates a steady-state sample and
// extrapolates (a full run takes minutes; pass -exact for it). Output is
// an aligned table, an ASCII chart, and CSV on demand.
//
// Usage:
//
//	go run ./cmd/figure3 [-exact] [-sample N] [-slaves N] [-csv out.csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/tab"
	"repro/internal/workload"
)

func main() {
	var (
		exact   = flag.Bool("exact", false, "simulate the full 2^23-key workload (slow, no extrapolation)")
		sample  = flag.Int("sample", 0, "simulated queries per config (0 = automatic steady-state sample)")
		slaves  = flag.Int("slaves", 10, "Method C slave count (masters fixed at 1)")
		keys    = flag.Int("keys", 327680, "index key count (Table 1: 327680)")
		queries = flag.Int("queries", 1<<23, "workload size (paper: 2^23)")
		csvPath = flag.String("csv", "", "also write CSV to this file")
		setup   = flag.Bool("print-setup", false, "print the Table 1 index geometry and exit")
	)
	flag.Parse()

	p := arch.PentiumIIICluster()
	indexKeys := workload.EvenKeys(*keys)

	if *setup {
		printSetup(indexKeys, *slaves, p)
		return
	}

	sampleQ := *sample
	if *exact {
		sampleQ = *queries
	}

	batches := workload.Figure3BatchBytes()
	methods := core.Methods()

	type job struct{ mi, bi int }
	type res struct {
		mi, bi int
		r      paper.SimReport
		err    error
	}
	jobs := make(chan job)
	results := make(chan res)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				cfg := paper.SimConfig{
					P:             p,
					Method:        methods[j.mi],
					IndexKeys:     indexKeys,
					TotalQueries:  *queries,
					QuerySeed:     42,
					BatchBytes:    batches[j.bi],
					Masters:       1,
					Slaves:        *slaves,
					SampleQueries: sampleQ,
				}
				r, err := paper.Run(cfg)
				results <- res{j.mi, j.bi, r, err}
			}
		}()
	}
	go func() {
		for mi := range methods {
			for bi := range batches {
				jobs <- job{mi, bi}
			}
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	grid := make([][]paper.SimReport, len(methods))
	for i := range grid {
		grid[i] = make([]paper.SimReport, len(batches))
	}
	for r := range results {
		if r.err != nil {
			fmt.Fprintln(os.Stderr, "figure3:", r.err)
			os.Exit(1)
		}
		grid[r.mi][r.bi] = r.r
	}

	// Table.
	header := []string{"batch"}
	for _, m := range methods {
		header = append(header, "method "+m.String())
	}
	header = append(header, "C-3 idle")
	tbl := tab.NewTable(header...)
	labels := make([]string, len(batches))
	series := make([]tab.Series, len(methods))
	for mi, m := range methods {
		series[mi] = tab.Series{Name: m.String(), Values: make([]float64, len(batches))}
	}
	for bi, b := range batches {
		labels[bi] = fmtBytes(b)
		row := []any{labels[bi]}
		for mi := range methods {
			row = append(row, fmt.Sprintf("%.4f", grid[mi][bi].NormalizedSec))
			series[mi].Values[bi] = grid[mi][bi].NormalizedSec
		}
		row = append(row, fmt.Sprintf("%.0f%%", grid[len(methods)-1][bi].SlaveIdleFrac*100))
		tbl.Row(row...)
	}

	fmt.Printf("Figure 3 — search time (s) for %d keys (%s), %d+1 nodes, normalized (A, B / %d)\n",
		*queries, fmtBytes(*queries*workload.KeyBytes), *slaves, *slaves+1)
	fmt.Printf("arch: %s\n\n", p)
	fmt.Print(tbl)
	fmt.Println()
	fmt.Print(tab.Chart(labels, series, 16))

	if *csvPath != "" {
		csv := tab.CSV("batch_bytes", intLabels(batches), series)
		if err := os.WriteFile(*csvPath, []byte(csv), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "figure3: write csv:", err)
			os.Exit(1)
		}
		fmt.Println("\nCSV written to", *csvPath)
	}
}

func printSetup(keys []workload.Key, slaves int, p arch.Params) {
	// Reproduce Table 1 from the actual structures.
	fmt.Println("Table 1 — index structure setup (derived from the built structures)")
	t := tab.NewTable("parameter", "value")
	t.Row("Number of keys on the sorted array", len(keys))
	t.Row("Search key size", fmt.Sprintf("%d bytes", workload.KeyBytes))
	t.Row("Node size (A, B, C-1)", fmt.Sprintf("%d bytes", 32))
	t.Row("L2 cache / line", fmt.Sprintf("%d KB / %d B", p.L2Size>>10, p.L2Line))
	t.Row("Slaves / partition keys", fmt.Sprintf("%d / %d", slaves, len(keys)/slaves))
	fmt.Print(t)
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func intLabels(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprint(x)
	}
	return out
}
