// Command bench is the repository's benchmark: seven named workloads
// driven through the public API, every answer checked against an oracle,
// end-to-end metrics from an untraced measured phase of identical rounds
// and per-layer metrics from a traced phase that follows it on the last
// round's live index.
// BENCHMARK.json at the root of the checkout names the workloads and
// metrics; README.md explains them.
//
//	bash bench/run.sh -workload rank_cached -seed 1 -seconds 16 -trace 0
//	bash bench/run.sh -seed 1 -out DIR            # all workloads, traced
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

func main() {
	if os.Getenv(spinEnv) != "" {
		spin() // the child of keepAwake; never returns
	}
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload to run; empty runs all seven")
	seed := fl.Uint64("seed", 1, "seed of every generated input")
	seconds := fl.Float64("seconds", 16, "length of the measured phase in seconds")
	trace := fl.Int("trace", 1, "1: a traced phase follows the measured one and the result line carries the per-layer metrics; 0: no traced phase, the result line carries the end-to-end metrics")
	out := fl.String("out", "", "directory for trace files and temporary WAL state (default .bench_out in the checkout)")
	repeat := fl.Int("repeat", 1, "run the selection this many times and print each metric's spread")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	selected := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *workload)
			return 2
		}
		selected = []workloadSpec{w}
	}
	if *out == "" {
		*out = filepath.Join(root, ".bench_out")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace != 0, outDir: *out,
		minReadCalls: minReadCalls, out: stdout}
	stop, err := keepAwake()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer stop()
	printHeader(stdout, root, cfg)
	return run(selected, *repeat, cfg, bf)
}

// run runs the selected workloads repeat times and returns the exit
// code: 0 only if every call of every run answered as the oracle does.
func run(selected []workloadSpec, repeat int, cfg config, bf *benchmarkFile) int {
	var results []*result
	for rep := 0; rep < repeat; rep++ {
		for _, w := range selected {
			res, err := runWorkload(w, cfg, bf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printResult(cfg.out, res, bf)
			results = append(results, res)
		}
	}
	if repeat > 1 {
		printSpread(cfg.out, results, bf)
	}
	code := 0
	for _, r := range results {
		if !r.correct() {
			code = 1
		}
	}
	// One run of one workload: the last line is the result object the
	// driver reads.
	if len(results) == 1 {
		fmt.Fprintln(cfg.out, resultLine(results[0], bf))
	}
	return code
}

func printHeader(w io.Writer, root string, cfg config) {
	fmt.Fprintf(w, "bench: seed %d, commit %s, %s, nproc %d, GOMAXPROCS %d\n",
		cfg.seed, gitCommit(root), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "bench: caches %s; WAL directory on %s, FsyncInterval 0 (fsync on every commit)\n",
		cacheSizes(), fsType(cfg.outDir))
	fmt.Fprintf(w, "bench: TCP traffic crosses loopback between goroutines of this process, never a link; one generator process; CPUs held awake by idle-priority spinners in a child process\n")
	measured, traced := cfg.phases()
	fmt.Fprintf(w, "bench: measured phase %v untraced, in rounds of identical work, each on a fresh set-up; traced phase %v; a timing metric is the median over the rounds (a round's throughput, median call, CPU per key, set-up time), each round corrected by the yardstick read beside it (nominal %v); checks and probes are outside every timed span\n",
		measured, traced, yardstickNominal)
}

// lineSpecs returns the metrics the result line of r carries: the
// end-to-end metrics, or after a traced phase the per-layer ones.
func lineSpecs(r *result, bf *benchmarkFile) []metricSpec {
	if r.traced {
		return bf.PerLayer
	}
	return bf.EndToEnd
}

func printResult(w io.Writer, r *result, bf *benchmarkFile) {
	specs := bf.EndToEnd
	if r.traced {
		specs = append(slices.Clone(specs), bf.PerLayer...)
	}
	var absent []string
	for _, spec := range specs {
		if v, ok := r.metrics[spec.Name]; ok {
			fmt.Fprintf(w, "   %-40s %14.6g %s\n", spec.Name, v, spec.Unit)
		} else {
			absent = append(absent, spec.Name)
		}
	}
	if len(absent) > 0 {
		fmt.Fprintf(w, "   n/a (layer not on this workload's path): %s\n", strings.Join(absent, " "))
	}
	frac := float64(r.failed) / float64(r.attempted)
	fmt.Fprintf(w, "   %-40s %14.6g ratio (%d of %d calls)\n", "failed_ops_frac", frac, r.failed, r.attempted)
}

// resultLine is the JSON object the driver parses: every metric of the
// run's kind, 0 where the workload does not have it.
func resultLine(r *result, bf *benchmarkFile) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, spec := range lineSpecs(r, bf) {
		v := r.metrics[spec.Name]
		if !finite(v) {
			v = 0
		}
		line.Metrics[spec.Name] = value{v, spec.Unit}
	}
	b, _ := json.Marshal(line) // a struct of numbers, strings and bools marshals
	return string(b)
}

// printSpread prints, per workload and metric, the median, quartiles and
// relative spread over the repeats, and flags an end-to-end metric whose
// spread exceeds its bound.
func printSpread(w io.Writer, results []*result, bf *benchmarkFile) {
	type key struct {
		workload, metric string
	}
	values := map[key][]float64{}
	for _, r := range results {
		for name, v := range r.metrics {
			values[key{r.workload, name}] = append(values[key{r.workload, name}], v)
		}
	}
	fmt.Fprintf(w, "\n== spread over repeats: (q3-q1)/median\n")
	for _, ws := range workloads {
		for _, specs := range [][]metricSpec{bf.EndToEnd, bf.PerLayer} {
			for _, spec := range specs {
				v := values[key{ws.name, spec.Name}]
				if len(v) < 2 {
					continue
				}
				q1, q2, q3 := quartiles(v)
				spread := (q3 - q1) / q2
				flag := ""
				if spec.Bound > 0 && spread > spec.Bound {
					flag = fmt.Sprintf("  SPREAD EXCEEDS BOUND %.2f", spec.Bound)
				}
				fmt.Fprintf(w, "   %-22s %-40s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f  n=%d%s\n",
					ws.name, spec.Name, q2, q1, q3, spread, len(v), flag)
			}
		}
	}
}
