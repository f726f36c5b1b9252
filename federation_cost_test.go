package interopdb

import (
	"testing"
)

// TestFederationAttachSolverScoped pins the incremental-derivation
// claim: attaching a third member performs only the NEW PAIR's solver
// work (conformation + integratePair + Sim checking against the classes
// its integration spec touches), strictly less than re-integrating the
// whole federation, and a Detach performs ZERO solver computations —
// retraction is pure provenance bookkeeping.
func TestFederationAttachSolverScoped(t *testing.T) {
	scale := 10
	fed := buildFigure1Federation(t, scale, false)
	pair1Cost := fed.LastAttachReasoning().Misses
	if pair1Cost <= 0 {
		t.Fatal("founding pair performed no reasoning — suspicious")
	}

	if err := fed.Attach(Figure1UnivArchive(), ArchiveStore(FixtureOptions{Scale: scale}), Figure1ArchiveIntegration()); err != nil {
		t.Fatal(err)
	}
	attachCost := fed.LastAttachReasoning().Misses
	if attachCost <= 0 {
		t.Fatalf("attach performed no solver work at all (misses %d) — suspicious", attachCost)
	}

	// A full re-integration repeats every pair's derivation; the
	// incremental attach pays only the new pair's.
	fullCost := fed.TotalReasoning().Misses
	if fullCost != pair1Cost+attachCost {
		t.Fatalf("total reasoning %d != pair1 %d + attach %d", fullCost, pair1Cost, attachCost)
	}
	if attachCost >= fullCost {
		t.Fatalf("incremental attach solver cost %d not below full re-integration cost %d", attachCost, fullCost)
	}

	// Detach retracts by provenance: no solver computation at all —
	// neither on the shared memo nor in the federation's totals.
	preMemo := fed.Result().Derivation.CacheStats()
	preTotal := fed.TotalReasoning()
	if err := fed.Detach("UnivArchive"); err != nil {
		t.Fatal(err)
	}
	postMemo := fed.Result().Derivation.CacheStats()
	if d := postMemo.Misses - preMemo.Misses; d != 0 {
		t.Fatalf("detach performed %d solver computations, want 0", d)
	}
	if got := fed.TotalReasoning(); got != preTotal {
		t.Fatalf("detach changed the reasoning totals: %v -> %v", preTotal, got)
	}
}

// TestFederationPlanSurvival pins the scoped-republication contract on
// the serving engine: a membership change publishes exactly ONE
// snapshot, classes untouched by the new member's integration spec keep
// their cached plans (the repeated query is a plan-cache hit with zero
// solver queries), while classes the attach
// touched are replanned.
func TestFederationPlanSurvival(t *testing.T) {
	fed := buildFigure1Federation(t, 10, false)
	e := fed.Engine()

	untouched := Query{Class: "Publisher", Where: MustParseExpr("location = 'Berlin'")}
	untouched2 := Query{Class: "Monograph", Where: MustParseExpr("shopprice < 95")}
	touched := Query{Class: "Proceedings", Where: MustParseExpr("rating >= 7")}
	warm := func(q Query) {
		t.Helper()
		if _, _, err := e.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	warm(untouched)
	warm(untouched2)
	warm(touched)

	pre := e.CacheStats()
	if err := fed.Attach(Figure1UnivArchive(), ArchiveStore(FixtureOptions{Scale: 10}), Figure1ArchiveIntegration()); err != nil {
		t.Fatal(err)
	}
	post := e.CacheStats()
	if d := post.Publishes - pre.Publishes; d != 1 {
		t.Fatalf("attach published %d snapshots, want exactly 1", d)
	}

	// Untouched classes: plans survived — hits, no misses, no solver.
	runStats := func(q Query) QueryStats {
		t.Helper()
		_, s, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s0 := e.CacheStats()
	st := runStats(untouched)
	if !st.PlanCached {
		t.Fatal("Publisher plan did not survive the attach")
	}
	st = runStats(untouched2)
	if !st.PlanCached {
		t.Fatal("Monograph plan did not survive the attach")
	}
	s1 := e.CacheStats()
	if s1.PlanHits-s0.PlanHits != 2 || s1.PlanMisses != s0.PlanMisses {
		t.Fatalf("untouched-class queries: hits %d misses %d, want 2 hits 0 misses",
			s1.PlanHits-s0.PlanHits, s1.PlanMisses-s0.PlanMisses)
	}
	if s1.SolverQueries != s0.SolverQueries {
		t.Fatal("untouched-class queries performed solver work")
	}

	// Touched class: the attach changed its serving state (the merged
	// VLDB objects moved), so its plan was dropped and rebuilt.
	st = runStats(touched)
	if st.PlanCached {
		t.Fatal("Proceedings plan survived the attach despite its extent changing")
	}

	// Same contract across Detach.
	warm(touched)
	pre = e.CacheStats()
	if err := fed.Detach("UnivArchive"); err != nil {
		t.Fatal(err)
	}
	post = e.CacheStats()
	if d := post.Publishes - pre.Publishes; d != 1 {
		t.Fatalf("detach published %d snapshots, want exactly 1", d)
	}
	if st = runStats(untouched); !st.PlanCached {
		t.Fatal("Publisher plan did not survive the detach")
	}
	if st = runStats(touched); st.PlanCached {
		t.Fatal("Proceedings plan survived the detach despite its extent changing")
	}
}
