package experiments

import (
	"testing"

	"interopdb/internal/core"
	"interopdb/internal/fixture"
	"interopdb/internal/tm"
	"interopdb/internal/workload"
)

// fig1Result integrates the paper's Figure 1 instances under the
// original §2.2 specification.
func fig1Result(t testing.TB) *core.Result {
	local, remote := fixture.Figure1Stores(fixture.Options{})
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1Integration(), local, remote, 1)
	if err != nil {
		t.Fatalf("Integrate: %v", err)
	}
	return res
}

// TestClassBasedOverassigns: the [BLN86]-style wholesale class
// correspondence Proceedings≡RefereedPubl claims the non-refereed
// workshop notes are refereed — instance-based rules do not.
func TestClassBasedOverassigns(t *testing.T) {
	res := fig1Result(t)
	corrs := []classCorrespondence{
		{local: "RefereedPubl", remote: "Proceedings"},
		{local: "Publication", remote: "Item"},
	}
	cb := classBasedClassification(res, corrs)
	q := compareClassification(res, cb, []string{"RefereedPubl", "Publication"})
	if q.assignments == 0 {
		t.Fatal("no assignments")
	}
	if q.precision() >= 1 {
		t.Errorf("class-based precision should be < 1 (workshop notes are not refereed): %+v", q)
	}
	if q.correct == 0 {
		t.Errorf("some assignments are correct: %+v", q)
	}
}

// TestClassBasedMatchesOnItems: only vldb96 merges, and Items are not
// classified under Publication unless merged or similar, so the
// Publication≡Item correspondence over-assigns too.
func TestClassBasedMatchesOnItems(t *testing.T) {
	res := fig1Result(t)
	cb := classBasedClassification(res, []classCorrespondence{{local: "Publication", remote: "Item"}})
	q := compareClassification(res, cb, []string{"Publication"})
	if q.precision() >= 1 {
		t.Errorf("monograph must not be a Publication under instance rules: %+v", q)
	}
}

// TestUnionAllFalseRejects: the naive all-objective union falsely rejects
// valid merged states — the introduction's point. The merged employee's
// trav_reimb 22 satisfies the derived {12,17,22} but violates both
// locally-declared tariff sets.
func TestUnionAllFalseRejects(t *testing.T) {
	db1, db2 := workload.Personnel(workload.PersonnelParams{Seed: 3, DB1: 50, DB2: 50, Overlap: 0.5})
	res, err := core.Integrate(tm.Personnel1(), tm.Personnel2(), tm.PersonnelIntegration(), db1, db2, 1)
	if err != nil {
		t.Fatal(err)
	}
	fr, total := falseRejects(res, "DB1.Employee")
	if total == 0 {
		t.Fatal("no employees examined")
	}
	if fr == 0 {
		t.Errorf("union-all should falsely reject merged employees with averaged tariffs (total %d)", total)
	}
	t.Logf("union-all false rejects: %d/%d", fr, total)
}

// TestDerivedAcceptsAllMergedStates: sanity — every state produced by the
// merge satisfies the derived scope-appropriate constraints (soundness of
// the paper's derivation on this workload).
func TestDerivedAcceptsAllMergedStates(t *testing.T) {
	db1, db2 := workload.Personnel(workload.PersonnelParams{Seed: 4, DB1: 80, DB2: 80, Overlap: 0.4})
	res, err := core.Integrate(tm.Personnel1(), tm.Personnel2(), tm.PersonnelIntegration(), db1, db2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cls := range []string{"DB1.Employee", "DB2.Employee"} {
		for _, g := range res.View.Extent(cls) {
			env := res.View.Env(g)
			for _, gc := range res.Derivation.GlobalFor(cls, core.ScopeAll, core.ScopeMerged) {
				if gc.Scope == core.ScopeMerged && !g.Merged() {
					continue
				}
				ok, err := env.EvalBool(gc.Expr)
				if err != nil {
					continue // key constraints etc. need extension context
				}
				if !ok {
					t.Errorf("derived constraint %s violated by %s", gc.Expr, g)
				}
			}
		}
	}
}
