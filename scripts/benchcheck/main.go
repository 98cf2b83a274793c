// Command benchcheck compares fresh BENCH_real.json runs against the
// committed baseline and fails (exit 1) when a committed row's ns_per_key
// regressed by more than 20% (generous, because CI runs on noisy shared
// VMs), when a committed row is missing from every fresh run, or when a
// row no longer reports ns_per_key — so deleting or renaming a kernel
// benchmark cannot silently remove its gate; the baseline changes with it
// in the same PR.
//
// Variance awareness: pass several fresh files (CI runs the bench suite
// three times) and each row is judged on its best (minimum) value across
// them — the minimum is the run least disturbed by neighbors on the shared
// VM, so run-to-run noise cannot fail a healthy build. A fresh row the
// baseline lacks is reported, not fatal: new rows appear with new
// benchmarks.
//
// When the GITHUB_STEP_SUMMARY environment variable is set (GitHub
// Actions), a per-row delta table in Markdown is appended to that file,
// so the job summary shows every row's baseline, best-of-N fresh value
// and delta at a glance.
//
// Usage: go run ./scripts/benchcheck committed.json fresh.json [fresh2.json ...]
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// tolerance is the fractional ns_per_key regression a row may show
// against the baseline.
const tolerance = 0.20

type benchFile struct {
	Benchmarks []struct {
		Name     string   `json:"name"`
		NsPerKey *float64 `json:"ns_per_key"`
	} `json:"benchmarks"`
}

// load maps each row's name to its ns_per_key (nil when the row does not
// report it).
func load(path string) (map[string]*float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]*float64, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		out[b.Name] = b.NsPerKey
	}
	return out, nil
}

// bestOf folds several fresh runs into one map of per-row minimum values
// (nil entries mark rows that no run reported ns_per_key for).
func bestOf(runs []map[string]*float64) map[string]*float64 {
	best := make(map[string]*float64)
	for _, run := range runs {
		for name, v := range run {
			if cur, seen := best[name]; !seen || cur == nil || v != nil && *v < *cur {
				best[name] = v
			}
		}
	}
	return best
}

// row is one row's outcome, shared by the stdout report and the
// job-summary table; base and best are NaN where that side has no value.
type row struct {
	name       string
	base, best float64
	status     string
	failed     bool
}

// values is the row's baseline, best fresh value and delta, or "—" where
// a side has no value.
func (r row) values() string {
	if math.IsNaN(r.base) || math.IsNaN(r.best) {
		return "—"
	}
	return fmt.Sprintf("%.4g -> %.4g ns/key (%+.1f%%)", r.base, r.best, (r.best/r.base-1)*100)
}

// compare judges every committed row against the best of the fresh runs,
// and lists the fresh rows the baseline lacks; rows come back sorted by
// name.
func compare(committed map[string]*float64, runs []map[string]*float64) []row {
	fresh := bestOf(runs)
	value := func(v *float64) float64 {
		if v == nil {
			return math.NaN()
		}
		return *v
	}
	var rows []row
	for name, base := range committed {
		cur, ok := fresh[name]
		r := row{name: name, base: value(base), best: value(cur), failed: true}
		switch {
		case base == nil:
			r.status = "no ns_per_key in the baseline"
		case !ok:
			r.status = "MISSING from every fresh run"
		case cur == nil:
			r.status = "NO ns_per_key in any fresh run"
		case *cur > *base*(1+tolerance):
			r.status = "REGRESSED"
		default:
			r.status, r.failed = "ok", false
		}
		rows = append(rows, r)
	}
	for name, v := range fresh {
		if _, ok := committed[name]; !ok {
			rows = append(rows, row{name: name, base: math.NaN(), best: value(v), status: "new row (no baseline yet)"})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}

func main() {
	if len(os.Args) < 3 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck committed.json fresh.json [fresh2.json ...]")
		os.Exit(2)
	}
	committed, err := load(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	if len(committed) == 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: the baseline has no rows")
		os.Exit(2)
	}
	var runs []map[string]*float64
	for _, arg := range os.Args[2:] {
		run, err := load(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(2)
		}
		runs = append(runs, run)
	}

	rows := compare(committed, runs)
	failed := 0
	for _, r := range rows {
		fmt.Printf("benchcheck: %-50s %-36s %s\n", r.name, r.values(), r.status)
		if r.failed {
			failed++
		}
	}
	writeSummary(rows, len(runs))

	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %d of %d baseline rows failed (%.0f%% tolerance on ns_per_key)\n", failed, len(committed), tolerance*100)
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %d rows within %.0f%% tolerance (best of %d runs)\n", len(committed), tolerance*100, len(runs))
}

// writeSummary appends the delta table to the GitHub Actions job
// summary when running in CI; a missing or unwritable summary file is
// not an error (local runs).
func writeSummary(rows []row, nRuns int) {
	path := os.Getenv("GITHUB_STEP_SUMMARY")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck: step summary:", err)
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "### Bench regression check (ns/key, best of %d runs, %.0f%% tolerance)\n\n", nRuns, tolerance*100)
	fmt.Fprintln(f, "| benchmark | baseline -> best fresh (delta) | status |")
	fmt.Fprintln(f, "|---|---|---|")
	for _, r := range rows {
		status := r.status
		if r.failed {
			status = "**" + status + "**"
		}
		fmt.Fprintf(f, "| %s | %s | %s |\n", r.name, r.values(), status)
	}
	fmt.Fprintln(f)
}
