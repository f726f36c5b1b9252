package workload

import (
	"testing"

	"interopdb/internal/core"
	"interopdb/internal/tm"
)

func TestBibliographicConsistent(t *testing.T) {
	p := DefaultParams()
	p.LocalBooks, p.RemoteBooks = 200, 200
	local, remote := Bibliographic(p)
	if vs := local.CheckAll(); len(vs) != 0 {
		t.Fatalf("local workload violates constraints: %v", vs[:min(3, len(vs))])
	}
	if vs := remote.CheckAll(); len(vs) != 0 {
		t.Fatalf("remote workload violates constraints: %v", vs[:min(3, len(vs))])
	}
	if local.Count() < 200 || remote.Count() < 200 {
		t.Errorf("counts: %d local, %d remote", local.Count(), remote.Count())
	}
}

func TestBibliographicOverlapDrivesMerges(t *testing.T) {
	p := DefaultParams()
	p.LocalBooks, p.RemoteBooks = 300, 300
	p.Overlap = 0.5
	local, remote := Bibliographic(p)
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1Integration(), local, remote, 1)
	if err != nil {
		t.Fatal(err)
	}
	merged := 0
	for _, g := range res.View.Objects {
		if g.Merged() {
			merged++
		}
	}
	// 150 overlapping books + up to 10 merged publishers.
	if merged < 150 || merged > 165 {
		t.Errorf("merged objects = %d, want ≈150 books + publishers", merged)
	}
	halfOverlapObjects := len(res.View.Objects)

	p.Overlap = 0
	local, remote = Bibliographic(p)
	res, err = core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1Integration(), local, remote, 1)
	if err != nil {
		t.Fatal(err)
	}
	merged = 0
	for _, g := range res.View.Objects {
		if g.Merged() && len(g.PartsOf(core.LocalSide)) > 0 {
			for _, m := range g.PartsOf(core.LocalSide) {
				if !m.Virtual {
					merged++
				}
			}
		}
	}
	if merged != 0 {
		t.Errorf("zero overlap should merge no books, got %d", merged)
	}
	// A merged pair is one global object, so the same workload with no
	// overlap integrates into a larger view.
	if n := len(res.View.Objects); n <= halfOverlapObjects {
		t.Errorf("global objects: %d at overlap 0, %d at overlap 0.5 — merging should shrink the view", n, halfOverlapObjects)
	}
}

func TestBibliographicDeterministic(t *testing.T) {
	p := DefaultParams()
	p.LocalBooks, p.RemoteBooks = 100, 100
	l1, r1 := Bibliographic(p)
	l2, r2 := Bibliographic(p)
	if l1.Count() != l2.Count() || r1.Count() != r2.Count() {
		t.Error("same seed should give identical workloads")
	}
	p.Seed++
	l3, _ := Bibliographic(p)
	_ = l3 // sizes equal but content differs; just ensure no panic
}

func TestPersonnelWorkload(t *testing.T) {
	db1, db2 := Personnel(PersonnelParams{Seed: 1, DB1: 100, DB2: 100, Overlap: 0.4})
	if vs := db1.CheckAll(); len(vs) != 0 {
		t.Fatalf("db1 violations: %v", vs[:min(3, len(vs))])
	}
	if vs := db2.CheckAll(); len(vs) != 0 {
		t.Fatalf("db2 violations: %v", vs[:min(3, len(vs))])
	}
	res, err := core.Integrate(tm.Personnel1(), tm.Personnel2(), tm.PersonnelIntegration(), db1, db2, 1)
	if err != nil {
		t.Fatal(err)
	}
	merged := 0
	for _, g := range res.View.Objects {
		if g.Merged() {
			merged++
		}
	}
	if merged != 40 {
		t.Errorf("merged employees = %d, want 40", merged)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
