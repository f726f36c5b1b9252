package view

import (
	"fmt"
	"runtime"
	"testing"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/fixture"
	"interopdb/internal/object"
	"interopdb/internal/tm"
)

// planMissItems is the number of bookseller Items planMissEngine loads
// on top of the paper's Figure 1 instances.
const planMissItems = 4000

// planMissEngine builds the engine over Figure 1 plus planMissItems
// bookseller Items (every other one a refereed Proceedings, so the class
// with constraints has an extent worth its cost gate) with unique isbns (k-000000 …) and unique two-cent
// shopprice steps from 20.00 scattered over the load order (so position
// order is not price order), so a point predicate answers one row, a
// one-cent window one row, and `shopprice > c` for c < 10 the whole
// extent — the shape of the repo benchmark's wire-point-read load.
func planMissEngine(tb testing.TB) *Engine {
	tb.Helper()
	local, remote := fixture.Figure1Stores(fixture.Options{})
	tx := remote.Begin() // one checked batch: the commit check costs what it inserts
	for i := 0; i < planMissItems; i++ {
		shop := planMissPrice(i)
		class, attrs := "Item", map[string]object.Value{
			"title":     object.Str(fmt.Sprintf("Title k-%06d", i)),
			"isbn":      object.Str(fmt.Sprintf("k-%06d", i)),
			"publisher": object.Ref{DB: "Bookseller", OID: 2}, // ACM
			"shopprice": object.Real(shop),
			"libprice":  object.Real(shop - 1),
		}
		if i%2 == 0 {
			class = "Proceedings"
			attrs["ref?"], attrs["rating"] = object.Bool(true), object.Int(8)
		}
		if _, err := tx.Insert(class, attrs); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		tb.Fatalf("Integrate: %v", err)
	}
	return New(res)
}

// planMissPrice is item i's shopprice: 1237 is coprime to planMissItems,
// so the prices are a permutation of the two-cent steps.
func planMissPrice(i int) float64 {
	return 20 + 0.02*float64(i*1237%planMissItems)
}

// The three plan-miss shapes, each with a fresh constant per i.
func pointPlusBroadRange(i int) string {
	return fmt.Sprintf("isbn = 'k-%06d' and shopprice > %d.%03d", i%planMissItems, i%10, i%1000)
}

func twoSidedRange(i int) string {
	c := planMissPrice(i % planMissItems)
	return fmt.Sprintf("shopprice >= %.3f and shopprice <= %.3f", c-0.004, c+0.004)
}

func inPlusRange(i int) string {
	return fmt.Sprintf("isbn in {'k-%06d', 'k-%06d', 'no-such-%d'} and shopprice > %d.%03d",
		i%planMissItems, (i+1)%planMissItems, i, i%10, i%1000)
}

// planMissSink keeps the benchmarked plan builds observable.
var planMissSink *plan

// benchPlanMiss times buildPlan itself — never the plan cache in front
// of it — over a ring of pre-parsed predicates, so every iteration is a
// miss and the parser stays out of the figure.
func benchPlanMiss(b *testing.B, shape func(int) string) {
	e := planMissEngine(b)
	s := e.snap.Load()
	cs := s.class("Item")
	preds := make([]expr.Node, 1024)
	for i := range preds {
		preds[i] = expr.MustParse(shape(i))
	}
	// Warm the lazily built indexes: a miss rebuilds the plan, not them.
	if _, err := e.buildPlan(bg, s, cs, preds[0], true, true); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := e.buildPlan(bg, s, cs, preds[i%len(preds)], true, true)
		if err != nil {
			b.Fatal(err)
		}
		planMissSink = p
	}
}

func BenchmarkPlanMissPointPlusBroadRange(b *testing.B) { benchPlanMiss(b, pointPlusBroadRange) }
func BenchmarkPlanMissTwoSidedRange(b *testing.B)       { benchPlanMiss(b, twoSidedRange) }
func BenchmarkPlanMissInPlusRange(b *testing.B)         { benchPlanMiss(b, inPlusRange) }

// TestPlanMissAllocBound keeps the O(extent) materialisation out of the
// plan build: a plan whose answer is one row may not allocate in
// proportion to the other served probes' windows (34.7 KB per build when
// every probe's position list was materialised and sorted).
func TestPlanMissAllocBound(t *testing.T) {
	const builds, maxBytesPerBuild = 200, 4 << 10
	e := planMissEngine(t)
	s := e.snap.Load()
	cs := s.class("Item")
	for _, shape := range []func(int) string{pointPlusBroadRange, twoSidedRange} {
		preds := make([]expr.Node, builds)
		for i := range preds {
			preds[i] = expr.MustParse(shape(i))
		}
		p, err := e.buildPlan(bg, s, cs, preds[0], true, true) // builds the indexes
		if err != nil {
			t.Fatal(err)
		}
		if p.served != 2 || len(p.positions) != 1 {
			t.Fatalf("%v: served=%d positions=%d, want a two-probe plan answering one row", preds[0], p.served, len(p.positions))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, pred := range preds {
			if _, err := e.buildPlan(bg, s, cs, pred, true, true); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / builds; per >= maxBytesPerBuild {
			t.Errorf("%v: %d B per plan build, want < %d", preds[0], per, maxBytesPerBuild)
		}
	}
}

// TestMergedWindowGate pins the one verdict the resolver may change: two
// range conjuncts on one attribute reach the cost gate as ONE merged
// window. Each side of a one-cent window spans about half the extent
// (serving estimate ≥ the constraint phase's price when counted alone),
// the merged window one row (or none) — so the gate skips the constraint phase, in
// all three serving modes alike.
func TestMergedWindowGate(t *testing.T) {
	e := planMissEngine(t)
	for i, n := 0, 0; n < 8; i += 2 { // even items are Proceedings
		if c := planMissPrice(i); c < 52 || c > 68 {
			continue // keep to mid-priced items: each side spans ~half the extent
		}
		n++
		q := Query{Class: "Proceedings", Where: expr.MustParse(twoSidedRange(i))}
		st := runThreeModes(t, e, q)
		if !st.ConstraintGated || st.IndexHits != 2 || st.CandidateRows != 1 {
			t.Errorf("%v: %+v, want a gated two-probe plan over one candidate", q.Where, st)
		}
		for _, side := range conjuncts(q.Where) {
			if st := runThreeModes(t, e, Query{Class: "Proceedings", Where: side}); st.ConstraintGated {
				t.Errorf("%v alone: gated (%+v), want the constraint phase entered", side, st)
			}
		}
	}
}
