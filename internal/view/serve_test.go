package view

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/fixture"
	"interopdb/internal/logic"
	"interopdb/internal/object"
	"interopdb/internal/tm"
	"interopdb/internal/workload"
)

// scaledEngine builds the engine over the repaired Figure 1 spec at the
// given fixture scale.
func scaledEngine(t testing.TB, scale int) *Engine {
	t.Helper()
	local, remote := fixture.Figure1Stores(fixture.Options{Scale: scale})
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		t.Fatalf("Integrate: %v", err)
	}
	return New(res)
}

// runBoth runs the query on the indexed+compiled path and the pure-scan
// reference path and checks rows and constraint stats agree.
func runBoth(t *testing.T, e *Engine, q Query) (Stats, Stats) {
	t.Helper()
	e.UseIndexes = true
	fastRows, fastStats, fastErr := e.Run(q)
	e.UseIndexes = false
	scanRows, scanStats, scanErr := e.Run(q)
	e.UseIndexes = true

	if (fastErr == nil) != (scanErr == nil) {
		t.Fatalf("query %v: error divergence: indexed=%v scan=%v", q.Where, fastErr, scanErr)
	}
	if fastErr != nil {
		if fastErr.Error() != scanErr.Error() {
			t.Errorf("query %v: error text divergence: %q vs %q", q.Where, fastErr, scanErr)
		}
		return fastStats, scanStats
	}
	if !reflect.DeepEqual(fastRows, scanRows) {
		t.Errorf("query %v: rows diverge:\nindexed: %v\nscan:    %v", q.Where, fastRows, scanRows)
	}
	if fastStats.PrunedEmpty != scanStats.PrunedEmpty || fastStats.DroppedConjuncts != scanStats.DroppedConjuncts {
		t.Errorf("query %v: constraint stats diverge: %+v vs %+v", q.Where, fastStats, scanStats)
	}
	if fastStats.Scanned > scanStats.Scanned {
		t.Errorf("query %v: indexed path evaluated more rows than the scan: %d > %d",
			q.Where, fastStats.Scanned, scanStats.Scanned)
	}
	return fastStats, scanStats
}

// wantServed is the brute-force oracle for the served prefix of a
// predicate none of whose conjuncts the constraint phase dropped: a
// conjunct is index-answerable iff it is an unguarded =, ordering or
// membership restriction of a stored attribute by a non-null constant,
// every extent member holds or declares the attribute, and — for an
// ordering — every stored non-null value shares the constant's kind
// class. The prefix ends at the first conjunct that is not.
func wantServed(e *Engine, class string, pred expr.Node) int {
	s := e.snap.Load()
	ext := s.class(class).ext
	served := 0
	for _, c := range conjuncts(pred) {
		r, ok := logic.ExtractRestriction(c)
		if !ok || r.Guard != nil || strings.Contains(r.Path, ".") || r.Op == expr.OpNe {
			break
		}
		if !r.IsSet() && r.Val.Kind() == object.KindNull {
			break
		}
		ordering := !r.IsSet() && r.Op != expr.OpEq
		for _, g := range ext {
			v, held := g.Get(r.Path)
			if !held && !s.declaresAttr(g, r.Path) {
				return served
			}
			if ordering && held && v.Kind() != object.KindNull && kindClass(v) != kindClass(r.Val) {
				return served
			}
		}
		served++
	}
	return served
}

// runThreeModes runs the query on the indexed+compiled path, the
// pure-scan path and the mutex+scan reference and checks they agree on
// rows, row order, error text and the gate verdict, and that the
// indexed path's access statistics are the ones the served prefix
// dictates: IndexHits conjuncts served, and exactly the rows satisfying
// them considered and evaluated.
func runThreeModes(t *testing.T, e *Engine, q Query) Stats {
	t.Helper()
	e.UseIndexes = true
	fastRows, fast, fastErr := e.Run(q)
	e.UseIndexes = false
	scanRows, scan, scanErr := e.Run(q)
	e.UseIndexes = true
	refRows, ref, refErr := e.runReference(q)

	if (fastErr == nil) != (scanErr == nil) || (fastErr == nil) != (refErr == nil) {
		t.Fatalf("query %v: error divergence: indexed=%v scan=%v reference=%v", q.Where, fastErr, scanErr, refErr)
	}
	if fastErr != nil && (fastErr.Error() != scanErr.Error() || fastErr.Error() != refErr.Error()) {
		t.Errorf("query %v: error text divergence: %q vs %q vs %q", q.Where, fastErr, scanErr, refErr)
	}
	if !reflect.DeepEqual(fastRows, scanRows) || !reflect.DeepEqual(fastRows, refRows) {
		t.Errorf("query %v: rows diverge:\nindexed:   %v\nscan:      %v\nreference: %v", q.Where, fastRows, scanRows, refRows)
	}
	verdict := func(s Stats) [3]any { return [3]any{s.ConstraintGated, s.PrunedEmpty, s.DroppedConjuncts} }
	if verdict(fast) != verdict(scan) || verdict(fast) != verdict(ref) {
		t.Errorf("query %v: gate verdicts diverge: indexed=%+v scan=%+v reference=%+v", q.Where, fast, scan, ref)
	}
	if fast.PrunedEmpty || fast.DroppedConjuncts > 0 {
		return fast
	}
	if want := wantServed(e, q.Class, q.Where); fast.IndexHits != want || scan.IndexHits != 0 {
		t.Errorf("query %v: IndexHits indexed=%d (want %d) scan=%d (want 0)", q.Where, fast.IndexHits, want, scan.IndexHits)
	}
	if fastErr != nil {
		return fast
	}
	ext := len(e.snap.Load().class(q.Class).ext)
	for _, s := range []Stats{scan, ref} {
		if s.CandidateRows != ext || s.Scanned != ext {
			t.Errorf("query %v: scan considered %d / evaluated %d rows, want the extent's %d", q.Where, s.CandidateRows, s.Scanned, ext)
		}
	}
	wantCand := ext
	if fast.IndexHits > 0 {
		e.UseIndexes = false
		prefixRows, _, err := e.Run(Query{Class: q.Class, Where: conjoinNodes(conjuncts(q.Where)[:fast.IndexHits])})
		e.UseIndexes = true
		if err != nil {
			t.Fatalf("query %v: served prefix errors on the scan path: %v", q.Where, err)
		}
		wantCand = len(prefixRows)
	}
	if fast.CandidateRows != wantCand || fast.Scanned != wantCand {
		t.Errorf("query %v: indexed path considered %d / evaluated %d rows, want %d (the rows satisfying its %d served conjuncts)",
			q.Where, fast.CandidateRows, fast.Scanned, wantCand, fast.IndexHits)
	}
	return fast
}

// inSet builds `attr in {elems…}` programmatically: null elements have
// no parser syntax.
func inSet(attr string, elems ...object.Value) expr.Node {
	lits := make([]expr.Node, len(elems))
	for i, v := range elems {
		lits[i] = expr.Lit{Val: v}
	}
	return expr.In{X: expr.Ident{Name: attr}, Set: expr.SetLit{Elems: lits}}
}

// resolverPredicate generates one predicate aimed at the planner's
// prefix resolver: a served prefix mixing eq / range / in probes over
// Int and Real constants, attributes that are null or declared-but-
// absent on part of the extent, in-sets with null and duplicate
// elements, a constant of the wrong kind class mid-prefix, same-
// attribute range pairs (nested, disjoint, touching) and an eq + range
// on one attribute. isbn draws a key of the fixture.
func resolverPredicate(rng *rand.Rand, isbn func() string) expr.Node {
	num := func(lo, n int) string { // an Int or a Real constant
		if rng.Intn(2) == 0 {
			return fmt.Sprint(lo + rng.Intn(n))
		}
		return fmt.Sprintf("%d.%d", lo+rng.Intn(n), rng.Intn(10))
	}
	ops := []string{"<", "<=", ">", ">="}
	mkConj := func() expr.Node {
		var src string
		switch rng.Intn(12) {
		case 0:
			src = fmt.Sprintf("rating %s %s", ops[rng.Intn(4)], num(1, 10))
		case 1:
			src = fmt.Sprintf("rating = %s", num(1, 10))
		case 2:
			src = fmt.Sprintf("shopprice %s %s", ops[rng.Intn(4)], num(20, 80))
		case 3: // a same-attribute pair: nested in, disjoint from or touching its neighbours
			a, b := 20+rng.Intn(80), 20+rng.Intn(80)
			if rng.Intn(3) == 0 {
				b = a
			}
			src = fmt.Sprintf("shopprice >= %d and shopprice <= %d", a, b)
		case 4:
			src = fmt.Sprintf("isbn = '%s'", isbn())
		case 5:
			return inSet("rating", object.Int(rng.Intn(10)+1), object.Null{}, object.Real(rng.Intn(10)+1), object.Int(rng.Intn(10)+1))
		case 6:
			src = fmt.Sprintf("isbn in {'%s', '%s', 'no-such-isbn'}", isbn(), isbn())
		case 7:
			src = fmt.Sprintf("ref? = %v", rng.Intn(2) == 0)
		case 8: // eq + range on one attribute
			src = fmt.Sprintf("rating = %d and rating >= %d", rng.Intn(10)+1, rng.Intn(10)+1)
		case 9: // null on remote-only members, absent-but-declared or undeclared by class
			src = []string{"avgAccRate >= 0.2", "avgAccRate in {0.18, 0.2}", "authAffil = 'x'", "libprice > 30"}[rng.Intn(4)]
		case 10: // wrong kind class: the ordered index declines, the scan errors
			src = []string{"shopprice < 'abc'", "rating >= 'x'", "isbn > 5", "ref? < 1"}[rng.Intn(4)]
		default:
			src = fmt.Sprintf("libprice %s %s", ops[rng.Intn(4)], num(20, 80))
		}
		return expr.MustParse(src)
	}
	conjs := []expr.Node{mkConj()}
	for k := rng.Intn(4); k > 0; k-- {
		conjs = append(conjs, mkConj())
	}
	return conjoinNodes(conjs)
}

// TestServeDifferentialFigure1 pins the indexed+compiled serving path to
// the pure-scan path over the Figure 1 fixture at several scales:
// identical rows, identical constraint decisions.
func TestServeDifferentialFigure1(t *testing.T) {
	for _, scale := range []int{1, 10, 50} {
		t.Run(fmt.Sprintf("scale=%d", scale), func(t *testing.T) {
			e := scaledEngine(t, scale)
			queries := []Query{
				// Equality on a string attribute (hash index).
				{Class: "Proceedings", Where: expr.MustParse("isbn = 'vldb96'")},
				{Class: "Item", Where: expr.MustParse(fmt.Sprintf("isbn = 'vldb96-c%d'", scale))},
				{Class: "Item", Where: expr.MustParse("isbn = 'no-such-isbn'")},
				// Equality on a boolean attribute.
				{Class: "Proceedings", Where: expr.MustParse("ref? = true")},
				// Range on numeric attributes (ordered index).
				{Class: "Proceedings", Where: expr.MustParse("rating >= 7")},
				{Class: "Item", Where: expr.MustParse("shopprice < 40")},
				{Class: "Item", Where: expr.MustParse("shopprice <= 30 and libprice > 20")},
				// Finite-set membership (hash index union).
				{Class: "Proceedings", Where: expr.MustParse("rating in {5, 8}")},
				// Mixed: index conjuncts + residual (dotted path, contains).
				{Class: "Proceedings", Where: expr.MustParse("rating >= 7 and publisher.name = 'IEEE'")},
				{Class: "Item", Where: expr.MustParse("shopprice < 50 and contains(title, 'Workshop')")},
				// Non-sargable only: compiled predicate over the full extent.
				{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'Springer'")},
				{Class: "Proceedings", Where: expr.MustParse("shopprice - libprice >= 2")},
				// != stays residual.
				{Class: "Proceedings", Where: expr.MustParse("rating != 8")},
				// Projections.
				{Class: "Proceedings", Where: expr.MustParse("rating >= 7"), Select: []string{"title", "rating"}},
				{Class: "Item", Select: []string{"title", "isbn"}},
				// No predicate at all.
				{Class: "Item"},
				{Class: "ProceedingsLike"},
				// Provably empty under the derived constraints.
				{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'IEEE' and ref? = false")},
				// Implied conjunct dropped, remainder index-served.
				{Class: "Proceedings", Where: expr.MustParse("(publisher.name = 'IEEE' implies ref? = true) and rating >= 8")},
				// Ill-typed predicate: both paths must error identically.
				{Class: "Proceedings", Where: expr.MustParse("title + 1 = 2")},
				// Sargable conjunct + ill-typed residual: the narrowed
				// candidate set changes how many rows the error scan
				// touches, but the error itself must still surface.
				{Class: "Proceedings", Where: expr.MustParse("rating >= 100 and title + 1 = 2")},
			}
			for _, q := range queries {
				runBoth(t, e, q)
			}

			// The selective equality query must actually prune.
			fast, _ := runBoth(t, e, Query{Class: "Item", Where: expr.MustParse("isbn = 'vldb96'")})
			ext := len(e.res.View.Extent("Item"))
			if fast.IndexHits != 1 {
				t.Errorf("equality query: IndexHits = %d, want 1", fast.IndexHits)
			}
			if fast.CandidateRows >= ext {
				t.Errorf("equality query: CandidateRows = %d, want < extent %d", fast.CandidateRows, ext)
			}
			if fast.Scanned != 1 {
				t.Errorf("equality query: Scanned = %d, want 1", fast.Scanned)
			}
		})
	}
}

// TestServeDifferentialRandomized cross-checks the two paths on a
// generated federation under a seeded random query workload.
func TestServeDifferentialRandomized(t *testing.T) {
	p := workload.DefaultParams()
	p.LocalBooks, p.RemoteBooks = 300, 300
	local, remote := workload.Bibliographic(p)
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := New(res)
	rng := rand.New(rand.NewSource(7))
	classes := []string{"Item", "Proceedings", "Publication", "Monograph"}
	mkConj := func() string {
		switch rng.Intn(7) {
		case 0:
			return fmt.Sprintf("rating >= %d", rng.Intn(10)+1)
		case 1:
			return fmt.Sprintf("rating = %d", rng.Intn(10)+1)
		case 2:
			return fmt.Sprintf("shopprice < %d", 20+rng.Intn(80))
		case 3:
			return fmt.Sprintf("libprice > %d", 20+rng.Intn(80))
		case 4:
			return fmt.Sprintf("isbn = 'isbn-%07d'", rng.Intn(400))
		case 5:
			return fmt.Sprintf("rating in {%d, %d}", rng.Intn(10)+1, rng.Intn(10)+1)
		default:
			return fmt.Sprintf("ref? = %v", rng.Intn(2) == 0)
		}
	}
	for i := 0; i < 200; i++ {
		src := mkConj()
		for k := rng.Intn(3); k > 0; k-- {
			src += " and " + mkConj()
		}
		q := Query{Class: classes[rng.Intn(len(classes))], Where: expr.MustParse(src)}
		runBoth(t, e, q)
	}

	// The prefix resolver's corpus, across all three serving modes.
	classes = append(classes, "RefereedPubl", "ScientificPubl")
	isbn := func() string { return fmt.Sprintf("isbn-%07d", rng.Intn(400)) }
	for i := 0; i < 600; i++ {
		runThreeModes(t, e, Query{Class: classes[rng.Intn(len(classes))], Where: resolverPredicate(rng, isbn)})
	}
}

// TestNullConstantStaysResidual: `attr = null` has no parser syntax but
// can be built programmatically; the interpreter evaluates null = null
// to true for declared-but-absent attributes, while indexes hold only
// non-null values — so the planner must leave null-constant conjuncts
// in the residual scan.
func TestNullConstantStaysResidual(t *testing.T) {
	e := scaledEngine(t, 0)
	for _, attr := range []string{"avgAccRate", "authAffil"} {
		q := Query{
			Class: "RefereedPubl",
			Where: expr.Binary{Op: expr.OpEq, L: expr.Ident{Name: attr}, R: expr.Lit{Val: object.Null{}}},
		}
		fast, _ := runBoth(t, e, q)
		if fast.IndexHits != 0 {
			t.Errorf("%s = null must not be index-served: %+v", attr, fast)
		}
	}
}

// TestKeyIndexValidate pins the O(1) key-uniqueness index to the full
// extent probe, including across shipped inserts (which both paths now
// observe, since Ship applies committed inserts to the view).
func TestKeyIndexValidate(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 3)
	dupOf := func(isbn string) map[string]object.Value {
		return map[string]object.Value{
			"title": object.Str("T"), "isbn": object.Str(isbn),
			"publisher": object.Ref{DB: "Bookseller", OID: 2}, // ACM
			"shopprice": object.Real(10), "libprice": object.Real(5),
			"ref?": object.Bool(true), "rating": object.Int(8),
		}
	}
	hasDupRej := func(rejs []Rejection) bool {
		for _, r := range rejs {
			if _, ok := r.Constraint.Expr.(expr.Key); ok {
				return true
			}
		}
		return false
	}
	cases := []struct {
		isbn string
		dup  bool
	}{
		{"vldb96", true}, {"vldb96-c2", true}, {"fresh-1", false},
	}
	for _, c := range cases {
		e.UseIndexes = true
		fast := hasDupRej(rejectionsOf(t, e, insertOf("Item", dupOf(c.isbn))))
		e.UseIndexes = false
		scan := hasDupRej(rejectionsOf(t, e, insertOf("Item", dupOf(c.isbn))))
		e.UseIndexes = true
		if fast != scan || fast != c.dup {
			t.Errorf("isbn %s: indexed=%v scan=%v want=%v", c.isbn, fast, scan, c.dup)
		}
	}

	// Ship a fresh insert; the key index (and the view) must see it. The
	// key constraint lives on Item; the shipped Proceedings object joins
	// the Item extent through its origin chain.
	if rejs := rejectionsOf(t, e, insertOf("Item", dupOf("shipped-1"))); len(rejs) != 0 {
		t.Fatalf("fresh insert rejected: %v", rejs)
	}
	if err := ship(e, insertOf("Proceedings", dupOf("shipped-1"))); err != nil {
		t.Fatalf("Ship: %v", err)
	}
	if !hasDupRej(rejectionsOf(t, e, insertOf("Item", dupOf("shipped-1")))) {
		t.Error("duplicate of a shipped insert not caught by the key index")
	}
	e.UseIndexes = false
	if !hasDupRej(rejectionsOf(t, e, insertOf("Item", dupOf("shipped-1")))) {
		t.Error("duplicate of a shipped insert not caught by the extent probe")
	}
	e.UseIndexes = true
	// And the shipped object is served by queries on both paths.
	fast, _ := runBoth(t, e, Query{Class: "Proceedings", Where: expr.MustParse("isbn = 'shipped-1'")})
	if fast.Scanned != 1 {
		t.Errorf("shipped insert not visible to the indexed path: %+v", fast)
	}
}

// TestPinnedSelectShortCircuitOutOfScope documents why Run does not
// serve Select-only queries from constraint-pinned constants when
// q.Where == nil (the "pinned-value short-circuit").
//
// Even when the global constraints entail attr = c for every member of a
// class, emitting c for each row without reading the extent is unsound
// on two counts, both demonstrated here:
//
//  1. Projection omits attributes an object does not carry: remote-only
//     proceedings have no avgAccRate, so their rows must lack the key
//     entirely — a fabricated pinned row would contain it.
//  2. Rows carry stored representations: a constraint may pin an integer
//     value (rating = 8) while the stored value is Real(8.0); they are
//     Equal but render differently, so fabricated rows would not be
//     byte-identical to scanned ones.
//
// The scan therefore remains the semantics even for predicate-free
// queries; the projection loop is cheap (no predicate evaluation) and
// its output is authoritative.
func TestPinnedSelectShortCircuitOutOfScope(t *testing.T) {
	e := scaledEngine(t, 0)
	rows, _, err := e.Run(Query{Class: "Proceedings", Select: []string{"title", "avgAccRate"}})
	if err != nil {
		t.Fatal(err)
	}
	withAttr, withoutAttr := 0, 0
	for _, r := range rows {
		if _, ok := r["avgAccRate"]; ok {
			withAttr++
		} else {
			withoutAttr++
		}
	}
	if withAttr == 0 || withoutAttr == 0 {
		t.Fatalf("fixture should mix members with and without avgAccRate: with=%d without=%d", withAttr, withoutAttr)
	}
}
