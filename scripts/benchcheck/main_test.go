package main

import "testing"

// run builds a fresh run (or a baseline) from row names and ns_per_key
// values; a negative value stands for a row that reports no ns_per_key.
func run(rows map[string]float64) map[string]*float64 {
	m := make(map[string]*float64, len(rows))
	for name, v := range rows {
		if v < 0 {
			m[name] = nil
			continue
		}
		m[name] = &v
	}
	return m
}

// verdict is compare's outcome for the row named name.
func verdict(t *testing.T, rows []row, name string) row {
	t.Helper()
	for _, r := range rows {
		if r.name == name {
			return r
		}
	}
	t.Fatalf("no row %q in %+v", name, rows)
	return row{}
}

func TestCompare(t *testing.T) {
	base := run(map[string]float64{"A": 10, "B": 20})
	for _, tc := range []struct {
		name   string
		runs   []map[string]float64
		failed bool // whether row A fails
		best   float64
	}{
		{"within tolerance", []map[string]float64{{"A": 11.9, "B": 20}}, false, 11.9},
		{"+25% fails", []map[string]float64{{"A": 12.5, "B": 20}}, true, 12.5},
		{"missing from every run fails", []map[string]float64{{"B": 20}, {"B": 19}}, true, -1},
		{"metric gone fails", []map[string]float64{{"A": -1, "B": 20}}, true, -1},
		// Two runs past the tolerance are forgiven by the third, and a run
		// without the metric does not hide the one with it.
		{"best of N is the minimum", []map[string]float64{{"A": 13, "B": 20}, {"A": 9, "B": 30}, {"A": -1, "B": 21}, {"A": 14, "B": 22}}, false, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var runs []map[string]*float64
			for _, r := range tc.runs {
				runs = append(runs, run(r))
			}
			rows := compare(base, runs)
			a := verdict(t, rows, "A")
			if a.failed != tc.failed {
				t.Errorf("row A: failed = %v (%s), want %v", a.failed, a.status, tc.failed)
			}
			if tc.best >= 0 && a.best != tc.best {
				t.Errorf("row A: best = %v, want %v", a.best, tc.best)
			}
			if b := verdict(t, rows, "B"); b.failed {
				t.Errorf("row B failed (%s), want ok: best %v", b.status, b.best)
			}
		})
	}
}

// A fresh row the baseline lacks is reported but does not fail the check.
func TestCompareNewRow(t *testing.T) {
	rows := compare(run(map[string]float64{"A": 10}), []map[string]*float64{run(map[string]float64{"A": 10, "C": 5})})
	if c := verdict(t, rows, "C"); c.failed || c.best != 5 {
		t.Errorf("new row C: %+v, want reported with best 5 and not failed", c)
	}
}
