// Command table3 regenerates Table 3 of the paper: the analytical
// model's predicted normalized running time for Methods A, B and C-3 at
// a 128 KB batch, side by side with this reproduction's simulated
// "experiment" and the paper's own predicted/experimental numbers.
//
// Usage:
//
//	go run ./cmd/table3 [-sample N]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/paper"
	"repro/internal/tab"
	"repro/internal/workload"
)

func main() {
	sample := flag.Int("sample", 400_000, "simulated queries per method (0 = automatic)")
	flag.Parse()

	p := arch.PentiumIIICluster()
	rows := model.Table3(p)

	simFor := map[string]core.Method{"A": core.MethodA, "B": core.MethodB, "C-3": core.MethodC3}
	indexKeys := workload.EvenKeys(327680)

	t := tab.NewTable("method", "model (this repo)", "sim experiment (this repo)",
		"paper predicted", "paper experiment")
	for _, row := range rows {
		cfg := paper.SimConfig{
			P:             p,
			Method:        simFor[row.Method],
			IndexKeys:     indexKeys,
			TotalQueries:  1 << 23,
			QuerySeed:     42,
			BatchBytes:    128 << 10,
			Masters:       1,
			Slaves:        10,
			SampleQueries: *sample,
		}
		r, err := paper.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "table3:", err)
			os.Exit(1)
		}
		t.Row(row.Method,
			fmt.Sprintf("%.3f s", row.PredictedSec),
			fmt.Sprintf("%.3f s", r.NormalizedSec),
			fmt.Sprintf("%.2f s", row.PaperPredictedSec),
			fmt.Sprintf("%.2f s", row.PaperExperimentSec))
	}
	fmt.Println("Table 3 — normalized running time for 2^23 keys, 128 KB batches, 1 master + 10 slaves")
	fmt.Printf("arch: %s\n\n", p)
	fmt.Print(t)
	fmt.Println("\nThe paper claims model/experiment agreement within 25%; Appendix A ignores")
	fmt.Println("TLB misses, so the model is a lower bound for Methods A and B (theirs and ours).")
}
