// Command benchcheck is the kernel regression gate: it judges every kernel
// row of the working tree against the same row of a parent commit, both
// measured in one job on one host, and exits 1 when a row fails. A kernel
// row times one layer's inner loop alone; the whole call is judged by the
// benchmark under bench/ (scripts/pair.sh), not here.
//
// The parent is extracted with `git archive` into a temporary directory
// (under $TMPDIR). Each side's test binaries are built with `go test -c
// -trimpath`, so one commit built from two directories is byte-identical.
// The sides then run in alternating rounds: in every round each group of
// rows runs on each side, back to back, and which side goes first flips
// every round. A run times each row count times for benchtime, and the
// median of those is the row's value for that side and round. Every run's
// output goes to stderr as it arrives.
//
// For each row it prints the median over the rounds of the ratio
// change/parent of ns/key, the rounds the change lost, and a verdict:
// "slower" when the median ratio is above bound and the change lost at
// least minLost rounds, "faster" for the mirror image, "unresolved"
// otherwise. A row fails when it is slower, when the parent reports it and
// the change does not, or when a side reports it without ns/key in some
// round; a row only the change reports is printed, not gated. Row names
// are compared as printed, GOMAXPROCS suffix and all. When
// GITHUB_STEP_SUMMARY is set (GitHub Actions), the table is appended to
// that file as Markdown.
//
// Usage: go run ./scripts/benchcheck -parent <ref>
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The round shape and the fail rule, set from self-pairs (the working tree
// against its own HEAD) on a 2-vCPU host: see CHANGES.md.
const (
	rounds    = 11
	count     = 5      // timings of each row per run; their median is the run's value
	benchtime = "10ms" // of each timing
	bound     = 1.30   // median ratio change/parent above which a row can be slower
	minLost   = 9      // rounds of the 11 a slower row must have lost
)

// group is one test binary run: the package and the -bench pattern of the
// rows, which share their set-up within the run.
type group struct{ pkg, pattern string }

// groups names every gated row:
//
//	SortedArrayRankBatch    the unsorted search kernel (SortedArray.RankBatch)
//	                        at the three per-partition sizes the benchmark's
//	                        workloads use and on two key sets whose samples
//	                        crowd into a few of the bucket table's buckets
//	                        (skewed, two-clusters); the pos- rows run the
//	                        form the engine's workers run (RankInto, each
//	                        rank stored at its position in a call eight
//	                        times the batch's length).
//	NewSortedArray          the array's build over keys known sorted, as a
//	                        partition's first build and every merge make it,
//	                        in ns per key: what the table adds to setup_s.
//	SortedArrayRankSorted   the sorted kernel on ascending runs, at the same
//	                        sizes and five densities from 0.3 to 2,560 array
//	                        keys per query: each of its three forms (a merge,
//	                        cursor windows, the unsorted kernel) is gated
//	                        where it is the one that runs.
//	UpdatableRankBatch      base plus buffer, ns per key of uniform queries;
//	                        rows are <base keys>x<buffered keys>, x0 the base
//	                        alone.
//	UpdatableInsertBatch    100-key inserts into a buffer of the row's size,
//	                        ns per inserted key. The x20480 rows are half the
//	                        merge trigger at the TCP node's 327,680-key
//	                        partition: its average buffer between merges.
//	UpdatableCountKeys      the MultiGet kernel (Updatable.CountKeys), 8,192
//	                        keys a call on a 163,840-key partition: ascending
//	                        on a clean partition and beside a 4,096-key
//	                        buffer, and unsorted on a clean one. A -bench
//	                        pattern matches each level of a row's name apart,
//	                        so the three rows take two runs.
//	PartitioningRoute       the master's per-key routing step at 8, 64 and
//	                        300 partitions.
var groups = []group{
	{"./internal/index", `^Benchmark(SortedArrayRankBatch|NewSortedArray|SortedArrayRankSorted)$`},
	{"./internal/index", `^BenchmarkUpdatable(RankBatch|InsertBatch)$`},
	{"./internal/index", `^BenchmarkUpdatableCountKeys$/^163840$/^delta(0|4096)$/^sorted$`},
	{"./internal/index", `^BenchmarkUpdatableCountKeys$/^163840$/^delta0$/^unsorted$`},
	{".", `^BenchmarkPartitioningRoute$`},
}

const parentSide, changeSide = 0, 1

var sideNames = [2]string{"parent", "change"}

func main() {
	parent := flag.String("parent", "", "the git revision to judge the working tree against")
	flag.Parse()
	if *parent == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: go run ./scripts/benchcheck -parent <ref>")
		os.Exit(2)
	}
	if err := check(*parent); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
}

// check runs the rounds and reports every row; its error is a failed
// build or run, or the number of failed rows.
func check(parent string) error {
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	sha, err := git(root, "rev-parse", "--short", parent+"^{commit}")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchcheck")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	dirs := [2]string{filepath.Join(tmp, "parent"), root}
	if err := extract(root, sha, dirs[parentSide]); err != nil {
		return err
	}
	// bins[side][pkg] is that side's test binary of pkg.
	var bins [2]map[string]string
	for s, dir := range dirs {
		bins[s] = make(map[string]string)
		for _, g := range groups {
			if bins[s][g.pkg] != "" {
				continue
			}
			bin := filepath.Join(tmp, fmt.Sprintf("%s-%d.test", sideNames[s], len(bins[s])))
			cmd := exec.Command("go", "test", "-c", "-trimpath", "-o", bin, g.pkg)
			cmd.Dir = dir
			if out, err := cmd.CombinedOutput(); err != nil {
				return fmt.Errorf("%s: go test -c %s: %v\n%s", sideNames[s], g.pkg, err, out)
			}
			bins[s][g.pkg] = bin
		}
	}

	fmt.Printf("benchcheck: parent %s, change the working tree; %d rounds of -benchtime %s -count %d\n", sha, rounds, benchtime, count)
	t := newTable()
	for r := range rounds {
		order := [2]int{parentSide, changeSide}
		if r%2 == 1 {
			order = [2]int{changeSide, parentSide}
		}
		for _, g := range groups {
			for _, s := range order {
				start := time.Now()
				out, err := run(bins[s][g.pkg], filepath.Join(tmp, "run.test"), filepath.Join(dirs[s], g.pkg), g)
				fmt.Fprintf(os.Stderr, "== round %d, %s, %s %s (%.1f s)\n%s",
					r+1, sideNames[s], g.pkg, g.pattern, time.Since(start).Seconds(), out)
				if err != nil {
					return fmt.Errorf("round %d, %s, %s: %v", r+1, sideNames[s], g.pkg, err)
				}
				t.add(s, r, out)
			}
		}
	}

	results := t.judge()
	failed := 0
	fmt.Printf("%-56s %7s %6s  %s\n", "row", "ratio", "lost", "verdict")
	for _, res := range results {
		ratio, lost := res.cells()
		mark := ""
		if res.failed {
			failed++
			mark = "  <- FAIL"
		}
		fmt.Printf("%-56s %7s %6s  %s%s\n", res.name, ratio, lost, res.verdict, mark)
	}
	writeSummary(results)
	if failed > 0 {
		return fmt.Errorf("%d of %d rows failed", failed, len(results))
	}
	fmt.Printf("benchcheck: no row failed (slower: median ratio above %.2f and %d of %d rounds lost)\n", bound, minLost, rounds)
	return nil
}

// git runs git in dir and returns its trimmed output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// extract writes the tree of commit sha into a new directory dir.
func extract(root, sha, dir string) error {
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("bash", "-c", `set -o pipefail; git archive "$0" | tar -x -C "$1"`, sha, dir)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("git archive %s: %v\n%s", sha, err, out)
	}
	return nil
}

// run runs group g with test binary bin in the package's directory dir, as
// go test would. It runs a fresh copy of bin, written to path, so that
// where a binary's pages sit in memory, fixed for the life of its file,
// cannot favour one side in every round: one self-pair run without copies
// read 20 of its 25 sorted-array rows faster on one side.
func run(bin, path, dir string, g group) (string, error) {
	data, err := os.ReadFile(bin)
	if err != nil {
		return "", err
	}
	os.Remove(path)
	if err := os.WriteFile(path, data, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command(path, "-test.run", "^$", "-test.bench", g.pattern,
		"-test.benchtime", benchtime, "-test.count", strconv.Itoa(count))
	cmd.Dir = dir
	cmd.Env = os.Environ() // the same on both sides: a nil Env gets PWD=dir added
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// parse reads one run's output: the rows in the order first printed, and
// each row's ns/key, the median if it printed several and NaN if a line
// of it printed none.
func parse(r io.Reader) (names []string, value map[string]float64) {
	all := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 2 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // not a result line
		}
		v := math.NaN()
		for i := 2; i+1 < len(f); i++ {
			if f[i+1] == "ns/key" {
				if x, err := strconv.ParseFloat(f[i], 64); err == nil {
					v = x
				}
			}
		}
		if all[f[0]] == nil {
			names = append(names, f[0])
		}
		all[f[0]] = append(all[f[0]], v)
	}
	value = make(map[string]float64, len(all))
	for name, vs := range all {
		value[name] = median(vs)
	}
	return names, value
}

// median of xs; NaN if any is NaN.
func median(xs []float64) float64 {
	if slices.ContainsFunc(xs, math.IsNaN) {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// table holds every row's value per side and round; a round the row was
// absent from reads NaN.
type table struct {
	names []string
	vals  map[string]*[2][]float64
}

func newTable() *table { return &table{vals: make(map[string]*[2][]float64)} }

// add records the run of side s in round r.
func (t *table) add(s, r int, out string) {
	names, value := parse(strings.NewReader(out))
	for _, name := range names {
		v := t.vals[name]
		if v == nil {
			v = new([2][]float64)
			t.vals[name] = v
			t.names = append(t.names, name)
		}
		for len(v[s]) <= r {
			v[s] = append(v[s], math.NaN())
		}
		v[s][r] = value[name]
	}
}

// judge gives every row's result, in the order the rows were first seen.
func (t *table) judge() []result {
	var out []result
	for _, name := range t.names {
		v := t.vals[name]
		out = append(out, compare(name, v[parentSide], v[changeSide]))
	}
	return out
}

// result is one row's outcome.
type result struct {
	name    string
	ratio   float64 // median of the per-round ratios change/parent; NaN if not judged
	lost    int     // rounds in which the change was slower
	verdict string
	failed  bool
}

// cells is the result's ratio and rounds lost as printed, "—" for a row
// not judged.
func (r result) cells() (ratio, lost string) {
	if math.IsNaN(r.ratio) {
		return "—", "—"
	}
	return fmt.Sprintf("%.3f", r.ratio), fmt.Sprintf("%d/%d", r.lost, rounds)
}

// compare applies the row rules to one row's per-round values on each side
// (nil: the side never reported the row; NaN: a round without ns/key).
func compare(name string, parent, change []float64) result {
	res := result{name: name, ratio: math.NaN()}
	switch {
	case parent == nil:
		res.verdict = "new row (not gated)"
		return res
	case change == nil:
		res.verdict, res.failed = "missing on the change side", true
		return res
	case len(parent) != rounds || len(change) != rounds ||
		slices.ContainsFunc(parent, math.IsNaN) || slices.ContainsFunc(change, math.IsNaN):
		res.verdict, res.failed = "no ns/key in some round", true
		return res
	}
	ratios := make([]float64, rounds)
	won := 0
	for i := range ratios {
		ratios[i] = change[i] / parent[i]
		if ratios[i] > 1 {
			res.lost++
		} else if ratios[i] < 1 {
			won++
		}
	}
	res.ratio = median(ratios)
	switch {
	case res.ratio > bound && res.lost >= minLost:
		res.verdict, res.failed = "slower", true
	case res.ratio < 1/bound && won >= minLost:
		res.verdict = "faster"
	default:
		res.verdict = "unresolved"
	}
	return res
}

// writeSummary appends the table to the GitHub Actions job summary when
// running in CI; a missing or unwritable summary file is not an error.
func writeSummary(results []result) {
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
	fmt.Fprintf(f, "### Kernel rows against the parent (ns/key, %d alternating rounds; slower: median ratio above %.2f and %d of %d rounds lost)\n\n", rounds, bound, minLost, rounds)
	fmt.Fprintln(f, "| row | median ratio change/parent | rounds lost | verdict |")
	fmt.Fprintln(f, "|---|---:|---:|---|")
	for _, r := range results {
		ratio, lost := r.cells()
		verdict := r.verdict
		if r.failed {
			verdict = "**" + verdict + "**"
		}
		fmt.Fprintf(f, "| %s | %s | %s | %s |\n", r.name, ratio, lost, verdict)
	}
	fmt.Fprintln(f)
}
