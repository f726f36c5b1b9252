package experiments

import (
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestAllScenarioReproductionsPass locks the reproduction: every worked
// example and figure of the paper (E1–E11) and the claim of each count
// table (B1, B2, B5, B6) must hold. These are the same two calls
// cmd/interopbench makes, kept in the test suite so a regression
// anywhere in the pipeline fails CI, not just the harness.
func TestAllScenarioReproductionsPass(t *testing.T) {
	results, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 11 {
		t.Fatalf("expected 11 experiments, got %d", len(results))
	}
	counts, err := Counts()
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 4 {
		t.Fatalf("expected 4 count tables, got %d", len(counts))
	}
	for _, r := range append(results, counts...) {
		if !r.Passed() {
			t.Errorf("reproduction failed:\n%s", r)
		}
		if len(r.Checks) == 0 {
			t.Errorf("%s has no checks", r.ID)
		}
		// Every check documents both sides of the comparison.
		for _, c := range r.Checks {
			if c.Expected == "" || c.Measured == "" {
				t.Errorf("%s/%s: missing expected/measured text", r.ID, c.Name)
			}
		}
	}
}

// TestNoClock enforces the package rule: an experiment counts, it does
// not time.
func TestNoClock(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"time"` || imp.Path.Value == `"runtime/pprof"` {
					t.Errorf("%s imports %s: a timing claim names a workload and a metric of benchmark/ (BENCHMARK.json), not an experiment", name, imp.Path.Value)
				}
			}
		}
	}
}

func TestResultRendering(t *testing.T) {
	r := Result{ID: "EX", Title: "demo", Checks: []Check{
		{Name: "a", Expected: "1", Measured: "1", Pass: true},
		{Name: "b", Expected: "2", Measured: "3", Pass: false},
	}}
	s := r.String()
	if !strings.Contains(s, "EX FAIL") || !strings.Contains(s, "[FAIL] b") || !strings.Contains(s, "[ok] a") {
		t.Errorf("rendering: %q", s)
	}
	if r.Passed() {
		t.Error("Passed with a failing check")
	}
}

func TestB1Shapes(t *testing.T) {
	rows, err := B1(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The refuted query prunes; answers were verified equal inside B1.
	if !rows[0].Pruned || rows[0].OptScanned != 0 {
		t.Errorf("first query should prune: %+v", rows[0])
	}
	if rows[2].Pruned {
		t.Errorf("unconstrained query must not prune: %+v", rows[2])
	}
}

func TestB2Shapes(t *testing.T) {
	rows, err := B2(40, []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].RejectedEarly != 0 {
		t.Errorf("zero violation rate: %+v", rows[0])
	}
	if rows[1].RejectedEarly != 20 {
		t.Errorf("half violation rate should reject 20/40: %+v", rows[1])
	}
	// Everything that shipped was accepted locally: validation is exact
	// on this workload.
	for _, r := range rows {
		if r.LocalRejects != 0 {
			t.Errorf("shipped inserts rejected locally: %+v", r)
		}
	}
}

func TestB5Shapes(t *testing.T) {
	r, err := B5()
	if err != nil {
		t.Fatal(err)
	}
	if r.ClassBasedPrecision >= 1 || r.ClassBasedPrecision <= 0 {
		t.Errorf("precision = %v", r.ClassBasedPrecision)
	}
	if r.UnionAllFalseRej == 0 || r.UnionAllFalseRej > r.UnionAllTotal {
		t.Errorf("union-all: %d/%d", r.UnionAllFalseRej, r.UnionAllTotal)
	}
}

func TestB6AlwaysSuggestsRepairs(t *testing.T) {
	rows, err := B6()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Conflicts > 0 && r.Suggestions == 0 {
			t.Errorf("conflicts without repairs: %+v", r)
		}
	}
	// Weakening oc2 below the obligation adds a conflict vs. baseline.
	if rows[1].Conflicts <= rows[0].Conflicts-1 {
		t.Errorf("weakened oc2 should add a conflict: %+v", rows[:2])
	}
}
