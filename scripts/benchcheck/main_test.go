package main

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// Row names are kept as printed: the size after "pos-" is not taken for a
// GOMAXPROCS suffix, which Go omits when GOMAXPROCS is 1.
func TestParseKeepsNames(t *testing.T) {
	for _, suffix := range []string{"", "-2"} {
		out := strings.Join([]string{
			"goos: linux",
			"BenchmarkSortedArrayRankBatch/pos-40960" + suffix + "   \t 100\t 123456 ns/op\t 12.50 ns/key",
			"BenchmarkSortedArrayRankBatch/pos-2097152" + suffix + " \t 100\t 345678 ns/op\t 40.00 ns/key",
			"BenchmarkSortedArrayRankBatch/pos-40960" + suffix + "   \t 100\t 123456 ns/op\t 11.50 ns/key",
			"BenchmarkSortedArrayRankBatch/pos-40960" + suffix + "   \t 100\t 123456 ns/op\t 13.00 ns/key",
			"BenchmarkNoKey" + suffix + "\t 100\t 5 ns/op",
			"PASS",
		}, "\n")
		names, best := parse(strings.NewReader(out))
		want := []string{"BenchmarkSortedArrayRankBatch/pos-40960" + suffix, "BenchmarkSortedArrayRankBatch/pos-2097152" + suffix, "BenchmarkNoKey" + suffix}
		if !slices.Equal(names, want) {
			t.Fatalf("suffix %q: names %q, want %q", suffix, names, want)
		}
		if got := best[want[0]]; got != 12.5 {
			t.Errorf("suffix %q: %s = %v, want the median 12.5", suffix, want[0], got)
		}
		if got := best[want[1]]; got != 40 {
			t.Errorf("suffix %q: %s = %v, want 40", suffix, want[1], got)
		}
		if got := best[want[2]]; !math.IsNaN(got) {
			t.Errorf("suffix %q: %s = %v, want NaN (no ns/key)", suffix, want[2], got)
		}
	}
}

// ratios makes a side's per-round values: the parent reads 10 ns/key in
// every round, the change 10 times the round's ratio.
func ratios(rs ...float64) (parent, change []float64) {
	for _, r := range rs {
		parent = append(parent, 10)
		change = append(change, 10*r)
	}
	return parent, change
}

// spread is n rounds at ratio r, the rest at 1/r.
func spread(r float64, n int) []float64 {
	rs := make([]float64, rounds)
	for i := range rs {
		rs[i] = 1 / r
		if i < n {
			rs[i] = r
		}
	}
	return rs
}

func TestCompare(t *testing.T) {
	p, slow := ratios(spread(1.4, rounds)...)
	_, fewLost := ratios(spread(1.5, minLost-1)...)
	_, fast := ratios(spread(0.7, minLost)...)
	// Two rows of one self-pair (the working tree against its own HEAD) on
	// the 2-vCPU host the constants were set on: the widest median of its
	// 39 rows (UpdatableRankBatch/40960x4095, 1.196 with 7 of 11 lost) and
	// the most rounds lost (SortedArrayRankSorted/163840x819, 1.113 with 9).
	_, selfWide := ratios(1.66, 0.97, 0.99, 1.25, 1.40, 1.03, 1.20, 1.43, 0.60, 1.30, 0.93)
	_, selfLost := ratios(1.19, 1.45, 1.09, 1.31, 1.11, 0.91, 1.04, 1.14, 0.65, 1.02, 1.36)
	noKey := slices.Clone(slow)
	noKey[rounds/2] = math.NaN()
	for _, tc := range []struct {
		name           string
		parent, change []float64
		verdict        string
		failed         bool
	}{
		{"lost every round at 1.4x fails", p, slow, "slower", true},
		{"above the bound with too few rounds lost is unresolved", p, fewLost, "unresolved", false},
		{"within tolerance", p, selfWide, "unresolved", false},
		{"most rounds lost in a self-pair is unresolved", p, selfLost, "unresolved", false},
		{"won enough rounds at 0.7x is faster", p, fast, "faster", false},
		{"missing from every run fails", p, nil, "missing on the change side", true},
		{"metric gone fails", p, noKey, "no ns/key in some round", true},
		{"a row the change reports in fewer rounds fails", p, slow[:rounds-1], "no ns/key in some round", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := compare("row", tc.parent, tc.change)
			if r.verdict != tc.verdict || r.failed != tc.failed {
				t.Errorf("verdict %q, failed %v (ratio %v, lost %d); want %q, %v", r.verdict, r.failed, r.ratio, r.lost, tc.verdict, tc.failed)
			}
		})
	}
}

// A row only the change reports is printed but not gated.
func TestCompareNewRow(t *testing.T) {
	_, change := ratios(spread(2, rounds)...)
	if r := compare("row", nil, change); r.failed || r.verdict != "new row (not gated)" {
		t.Errorf("verdict %q, failed %v; want a new row, not failed", r.verdict, r.failed)
	}
}

// A table fed whole runs keeps the rows in the order first printed, and a
// row that vanishes from the change side in one round fails.
func TestTableRounds(t *testing.T) {
	line := func(name, v string) string { return name + "-2\t 10\t 100 ns/op\t " + v + " ns/key\n" }
	tb := newTable()
	for r := 0; r < rounds; r++ {
		tb.add(parentSide, r, line("BenchmarkA", "10")+line("BenchmarkB", "10"))
		change := line("BenchmarkA", "10") + line("BenchmarkC", "5")
		if r != 3 {
			change += line("BenchmarkB", "10")
		}
		tb.add(changeSide, r, change)
	}
	var got []string
	for _, res := range tb.judge() {
		got = append(got, res.name+": "+res.verdict)
	}
	want := []string{"BenchmarkA-2: unresolved", "BenchmarkB-2: no ns/key in some round", "BenchmarkC-2: new row (not gated)"}
	if !slices.Equal(got, want) {
		t.Errorf("rows %q, want %q", got, want)
	}
}
