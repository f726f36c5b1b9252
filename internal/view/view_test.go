package view

import (
	"strings"
	"testing"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/fixture"
	"interopdb/internal/object"
	"interopdb/internal/tm"
)

// fig1Engine builds the engine over the repaired (conflict-free)
// integration specification: with the original r5 the engine rightly
// withholds the Proceedings constraints (unresolved strict-similarity
// conflict), so the optimiser has nothing to work with — the design loop
// of the paper repairs the spec first, then queries.
func fig1Engine(t testing.TB) *Engine {
	local, remote := fixture.Figure1Stores(fixture.Options{})
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		t.Fatalf("Integrate: %v", err)
	}
	return New(res)
}

// gateOpenScale is the Figure 1 fixture scale (63 Proceedings) at which
// the cost gate lets the constraint phase run on the paper's pruning and
// dropping queries; at Scale 20 it still skips them.
const gateOpenScale = 30

func TestQueryBasic(t *testing.T) {
	e := fig1Engine(t)
	rows, stats, err := e.Run(Query{Class: "Proceedings"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // vldb, caise, wkshp (r5 is approximate in the repaired spec)
		t.Errorf("Proceedings rows = %d, want 3", len(rows))
	}
	if stats.Scanned != 3 || stats.PrunedEmpty {
		t.Errorf("stats = %+v", stats)
	}
	// The approximate rule's virtual superclass holds the r5 candidates.
	rows, _, err = e.Run(Query{Class: "ProceedingsLike"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // vldb, caise, wkshp + sigmod
		t.Errorf("ProceedingsLike rows = %d, want 4", len(rows))
	}
}

func TestQueryPredicate(t *testing.T) {
	e := fig1Engine(t)
	rows, _, err := e.Run(Query{
		Class:  "Proceedings",
		Where:  expr.MustParse("rating >= 7"),
		Select: []string{"title", "rating"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Errorf("rows = %v", rows)
	}
	for _, r := range rows {
		if len(r) > 2 {
			t.Errorf("projection leaked attributes: %v", r)
		}
		f, _ := object.AsFloat(r["rating"])
		if f < 7 {
			t.Errorf("predicate failed: %v", r)
		}
	}
}

// TestQueryPrunedEmpty is the paper's §1 motivation: a subquery known to
// be empty from the derived global constraints is eliminated without
// scanning.
func TestQueryPrunedEmpty(t *testing.T) {
	e := scaledEngine(t, gateOpenScale)
	// Proceedings.oc1 (objective): IEEE implies ref?=true. Asking for
	// IEEE non-refereed proceedings is provably empty.
	q := Query{
		Class: "Proceedings",
		Where: expr.MustParse("publisher.name = 'IEEE' and ref? = false"),
	}
	rows, stats, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.PrunedEmpty || stats.ConstraintGated {
		t.Errorf("query should be pruned, not gated; stats = %+v", stats)
	}
	if stats.Scanned != 0 || len(rows) != 0 {
		t.Errorf("pruned query must not scan: %+v", stats)
	}
	// Without constraints, the same query scans the whole extent.
	e.UseConstraints = false
	_, stats, err = e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PrunedEmpty || stats.Scanned == 0 {
		t.Errorf("unoptimised run should scan: %+v", stats)
	}
}

func TestQueryDropsImpliedConjuncts(t *testing.T) {
	e := scaledEngine(t, gateOpenScale)
	// key isbn propagates; rating bound for ACM comes from the derived
	// constraint. "publisher.name='IEEE' implies ref?=true" is objective,
	// so the conjunct (the whole implication) is implied.
	q := Query{
		Class: "Proceedings",
		Where: expr.MustParse("(publisher.name = 'IEEE' implies ref? = true) and rating >= 1"),
	}
	_, stats, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedConjuncts < 1 || stats.ConstraintGated {
		t.Errorf("implied conjunct should be dropped, not gated: %+v", stats)
	}
}

func TestValidateInsertVerdicts(t *testing.T) {
	e := fig1Engine(t)
	// Violates the objective oc1: IEEE but not refereed.
	bad := map[string]object.Value{
		"title": object.Str("Bad"), "isbn": object.Str("new-1"),
		"publisher": object.Ref{DB: "Bookseller", OID: 1}, // IEEE
		"shopprice": object.Real(10), "libprice": object.Real(5),
		"ref?": object.Bool(false), "rating": object.Int(5),
	}
	rejs := rejectionsOf(t, e, insertOf("Proceedings", bad))
	if len(rejs) == 0 {
		t.Fatal("doomed insert should be rejected before shipping")
	}
	if !strings.Contains(rejs[0].Error(), "implies") {
		t.Errorf("rejection: %v", rejs[0])
	}
	// Duplicate key caught.
	dup := map[string]object.Value{
		"title": object.Str("Dup"), "isbn": object.Str("vldb96"),
		"shopprice": object.Real(10), "libprice": object.Real(5),
	}
	rejs = rejectionsOf(t, e, insertOf("Item", dup))
	found := false
	for _, r := range rejs {
		if strings.Contains(r.Detail, "duplicate key") {
			found = true
		}
	}
	if !found {
		t.Errorf("duplicate key not caught: %v", rejs)
	}
	// A clean insert passes validation and ships.
	good := map[string]object.Value{
		"title": object.Str("Fine"), "isbn": object.Str("new-2"),
		"publisher": object.Ref{DB: "Bookseller", OID: 2}, // ACM
		"shopprice": object.Real(10), "libprice": object.Real(5),
		"ref?": object.Bool(true), "rating": object.Int(8),
	}
	if rejs := rejectionsOf(t, e, insertOf("Proceedings", good)); len(rejs) != 0 {
		t.Fatalf("valid insert rejected: %v", rejs)
	}
}

// TestValidationPredictsLocalRejection: every insert the validator
// rejects would indeed be rejected by the local transaction manager, and
// every one it accepts commits locally — on the fixture's scenarios.
func TestValidationPredictsLocalRejection(t *testing.T) {
	local, remote := fixture.Figure1Stores(fixture.Options{})
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1Integration(), local, remote, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := New(res)
	bindStores(t, e, local, remote)
	cases := []map[string]object.Value{
		{ // violates oc2 (refereed, rating 5)
			"title": object.Str("A"), "isbn": object.Str("n1"),
			"publisher": object.Ref{DB: "Bookseller", OID: 3},
			"shopprice": object.Real(10), "libprice": object.Real(5),
			"ref?": object.Bool(true), "rating": object.Int(5),
		},
		{ // fine
			"title": object.Str("B"), "isbn": object.Str("n2"),
			"publisher": object.Ref{DB: "Bookseller", OID: 3},
			"shopprice": object.Real(10), "libprice": object.Real(5),
			"ref?": object.Bool(false), "rating": object.Int(5),
		},
		{ // violates Item.oc1 — but that constraint is subjective, so the
			// validator passes it and the local manager decides.
			"title": object.Str("C"), "isbn": object.Str("n3"),
			"publisher": object.Ref{DB: "Bookseller", OID: 3},
			"shopprice": object.Real(5), "libprice": object.Real(10),
			"ref?": object.Bool(false), "rating": object.Int(5),
		},
	}
	for i, attrs := range cases {
		rejected := len(rejectionsOf(t, e, insertOf("Proceedings", attrs))) > 0
		err := ship(e, insertOf("Proceedings", attrs))
		if rejected && err == nil {
			t.Errorf("case %d: validator rejected but local manager accepted", i)
		}
		// The converse may differ for subjective constraints (case 2):
		// global validation is necessarily weaker there — that is the
		// paper's point about subjective constraints remaining local.
	}
}

func TestClassesListing(t *testing.T) {
	e := fig1Engine(t)
	cs := e.Classes()
	want := map[string]bool{"Publication": true, "Item": true, "Proceedings": true, "VirtPublisher": true}
	got := map[string]bool{}
	for _, c := range cs {
		got[c] = true
	}
	for w := range want {
		if !got[w] {
			t.Errorf("Classes missing %s: %v", w, cs)
		}
	}
	// HasClass is the request paths' form of the same answer, from the
	// published snapshot, without allocating.
	for _, c := range cs {
		if !e.HasClass(c) {
			t.Errorf("HasClass(%s) = false for a listed class", c)
		}
	}
	if e.HasClass("NoSuchClass") {
		t.Error("HasClass(NoSuchClass) = true")
	}
	if n := testing.AllocsPerRun(100, func() { e.HasClass("Item") }); n != 0 {
		t.Errorf("HasClass allocates %v times per call, want 0", n)
	}
}

func TestQueryErrorPropagates(t *testing.T) {
	e := fig1Engine(t)
	_, _, err := e.Run(Query{Class: "Proceedings", Where: expr.MustParse("title + 1 = 2")})
	if err == nil {
		t.Error("ill-typed predicate should error")
	}
}
