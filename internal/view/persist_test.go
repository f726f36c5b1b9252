package view

import (
	"context"
	"reflect"
	"testing"

	"interopdb/internal/expr"
)

// TestPlanExportWarm is the engine-level half of the warm-start
// equivalence guarantee: exporting a worked engine's plan shapes and
// warming a cold engine with them makes the cold engine's first real
// query a plan-cache hit that issues zero solver queries.
func TestPlanExportWarm(t *testing.T) {
	hot := fig1Engine(t)
	queries := []Query{
		{Class: "Proceedings", Where: expr.MustParse("rating >= 7")},
		{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'IEEE' and ref? = false")},
		{Class: "Item", Where: expr.MustParse("shopprice <= 20")},
	}
	var want [][]Row
	for _, q := range queries {
		rows, _, err := hot.Run(q)
		if err != nil {
			t.Fatalf("hot Run(%s): %v", q.Class, err)
		}
		want = append(want, rows)
	}

	data, err := hot.ExportPlans()
	if err != nil {
		t.Fatalf("ExportPlans: %v", err)
	}
	if again, err := hot.ExportPlans(); err != nil || string(again) != string(data) {
		t.Fatalf("ExportPlans not deterministic (err=%v)", err)
	}

	cold := fig1Engine(t)
	warmed, skipped, err := cold.WarmPlans(context.Background(), data)
	if err != nil {
		t.Fatalf("WarmPlans: %v", err)
	}
	if warmed != len(queries) || skipped != 0 {
		t.Fatalf("WarmPlans = (%d warmed, %d skipped), want (%d, 0)", warmed, skipped, len(queries))
	}

	// Warming itself plans (and so queries the solver); what matters is
	// the state afterwards: the first post-warm client query must hit.
	before := cold.CacheStats()
	for i, q := range queries {
		rows, _, err := cold.Run(q)
		if err != nil {
			t.Fatalf("cold Run(%s): %v", q.Class, err)
		}
		if !reflect.DeepEqual(rows, want[i]) {
			t.Fatalf("cold Run(%s) rows diverge from hot engine", q.Class)
		}
	}
	after := cold.CacheStats()
	if hits := after.PlanHits - before.PlanHits; hits != int64(len(queries)) {
		t.Fatalf("post-warm queries recorded %d plan hits, want %d", hits, len(queries))
	}
	if misses := after.PlanMisses - before.PlanMisses; misses != 0 {
		t.Fatalf("post-warm queries recorded %d plan misses, want 0", misses)
	}
	if solver := after.SolverQueries - before.SolverQueries; solver != 0 {
		t.Fatalf("post-warm queries issued %d solver queries, want 0", solver)
	}
}

// TestWarmPlansSkipsForeignShapes: a shape for a class the federation
// doesn't serve is skipped, and a malformed export is refused. Shapes
// from checkpoints written while the plan key still carried the index
// and cost-gate flags hold "idx" and "gate" keys, in any combination:
// each still warms, and the query it names is then a plan-cache hit.
func TestWarmPlansSkipsForeignShapes(t *testing.T) {
	e := fig1Engine(t)
	pred := mustEncodePred(t, "rating >= 7")
	data := []byte(`[
		{"class":"NoSuchClass","pred":` + pred + `,"cons":true,"idx":true,"gate":true},
		{"class":"Proceedings","pred":` + pred + `,"cons":true,"idx":true,"gate":true},
		{"class":"Proceedings","pred":` + pred + `,"cons":true,"gate":true},
		{"class":"Proceedings","pred":` + pred + `,"cons":true,"idx":true}
	]`)
	warmed, skipped, err := e.WarmPlans(context.Background(), data)
	if err != nil {
		t.Fatalf("WarmPlans: %v", err)
	}
	if warmed != 3 || skipped != 1 {
		t.Fatalf("WarmPlans = (%d warmed, %d skipped), want (3, 1)", warmed, skipped)
	}
	if _, st, err := e.Run(Query{Class: "Proceedings", Where: expr.MustParse("rating >= 7")}); err != nil || !st.PlanCached {
		t.Fatalf("query after warming older shapes: PlanCached=%v err=%v, want a hit", st.PlanCached, err)
	}
	if _, _, err := e.WarmPlans(context.Background(), []byte("{broken")); err == nil {
		t.Fatal("WarmPlans accepted malformed export")
	}
}

func mustEncodePred(t *testing.T, src string) string {
	t.Helper()
	b, err := expr.EncodeNode(expr.MustParse(src))
	if err != nil {
		t.Fatalf("EncodeNode: %v", err)
	}
	return string(b)
}
