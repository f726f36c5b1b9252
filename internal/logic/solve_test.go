package logic

import (
	"testing"

	"interopdb/internal/expr"
	"interopdb/internal/object"
)

func typed() *Checker {
	return &Checker{Types: map[string]object.Type{
		"rating":         object.RangeType{Lo: 1, Hi: 10},
		"libprice":       object.TReal,
		"shopprice":      object.TReal,
		"ref?":           object.TBool,
		"publisher.name": object.TString,
		"trav_reimb":     object.TInt,
		"salary":         object.TReal,
		"n":              object.TInt,
		"x":              object.TReal,
		"y":              object.TReal,
		"z":              object.TReal,
	}}
}

func sat(t *testing.T, c *Checker, want Verdict, srcs ...string) {
	t.Helper()
	ns := make([]expr.Node, len(srcs))
	for i, s := range srcs {
		ns[i] = expr.MustParse(s)
	}
	if got := c.Satisfiable(ns...); got != want {
		t.Errorf("Satisfiable(%v) = %v, want %v", srcs, got, want)
	}
}

func ent(t *testing.T, c *Checker, want Verdict, concl string, prems ...string) {
	t.Helper()
	ns := make([]expr.Node, len(prems))
	for i, s := range prems {
		ns[i] = expr.MustParse(s)
	}
	if got := c.Entails(ns, expr.MustParse(concl)); got != want {
		t.Errorf("Entails(%v ⊨ %q) = %v, want %v", prems, concl, got, want)
	}
}

func TestSatBasicIntervals(t *testing.T) {
	c := typed()
	sat(t, c, Yes, "rating >= 2", "rating <= 3")
	sat(t, c, No, "rating >= 4", "rating <= 3")
	sat(t, c, Yes, "rating > 2", "rating < 4") // rating = 3
	sat(t, c, No, "rating > 2", "rating < 3")  // integer gap
	sat(t, c, No, "x > 2", "x < 2")
	sat(t, c, Yes, "x > 2", "x < 2.5") // dense domain
	sat(t, c, No, "x > 2", "x <= 2")
	sat(t, c, No, "x = 2", "x != 2")
	sat(t, c, Yes, "x != 2")
}

func TestSatTypeBounds(t *testing.T) {
	c := typed()
	// rating is 1..10; a constraint demanding 11 is unsat on its own.
	sat(t, c, No, "rating >= 11")
	sat(t, c, Yes, "rating >= 10")
	sat(t, c, No, "rating < 1")
	// Untyped attribute has no such bounds.
	sat(t, c, Yes, "unknown_attr >= 11")
}

func TestSatMembership(t *testing.T) {
	c := typed()
	sat(t, c, Yes, "trav_reimb in {10,20}")
	sat(t, c, No, "trav_reimb in {10,20}", "trav_reimb in {14,24}")
	sat(t, c, Yes, "trav_reimb in {10,20}", "trav_reimb in {20,24}")
	sat(t, c, No, "trav_reimb in {10,20}", "trav_reimb != 10", "trav_reimb != 20")
	sat(t, c, No, "trav_reimb in {10,20}", "trav_reimb > 25")
	sat(t, c, Yes, "trav_reimb not in {10,20}")
	sat(t, c, No, "trav_reimb in {10}", "trav_reimb not in {10}")
	sat(t, c, Yes, "publisher.name in {'ACM','IEEE'}", "publisher.name != 'ACM'")
	sat(t, c, No, "publisher.name in {'ACM'}", "publisher.name != 'ACM'")
}

func TestSatBooleans(t *testing.T) {
	c := typed()
	sat(t, c, No, "ref? = true", "ref? = false")
	sat(t, c, Yes, "ref? = true")
	sat(t, c, No, "ref? = true", "not (ref? = true)")
	// Bool type restricts the domain: ref? != true forces false; then
	// requiring != false as well is unsat.
	sat(t, c, No, "ref? != true", "ref? != false")
}

func TestSatImplications(t *testing.T) {
	c := typed()
	// ref?=true → rating>=7, together with ref?=true and rating<7: unsat.
	sat(t, c, No, "ref?=true implies rating >= 7", "ref? = true", "rating < 7")
	sat(t, c, Yes, "ref?=true implies rating >= 7", "ref? = false", "rating < 7")
	// Disjunction branching.
	sat(t, c, Yes, "rating <= 2 or rating >= 9", "rating >= 9")
	sat(t, c, No, "rating <= 2 or rating >= 9", "rating = 5")
}

func TestSatVarToVar(t *testing.T) {
	c := typed()
	sat(t, c, Yes, "libprice <= shopprice")
	sat(t, c, No, "libprice <= shopprice", "libprice > 10", "shopprice < 5")
	sat(t, c, No, "x < y", "y < z", "z < x")          // cycle
	sat(t, c, Yes, "x <= y", "y <= z", "z <= x")      // all equal
	sat(t, c, No, "x = y", "x >= 5", "y <= 4")        // equality propagation
	sat(t, c, No, "x != y", "x = 3", "y = 3")         // singleton disequality
	sat(t, c, Yes, "x != y", "x = 3", "y >= 3")       // y can exceed 3
	sat(t, c, No, "x > y", "y > x")                   // antisymmetry
	sat(t, c, Yes, "publisher.name = publisher.name") // trivial
}

func TestEntailmentPaperSection5(t *testing.T) {
	c := typed()
	// §5.2.1 strict similarity: derived rating>=7 entails conformed
	// RefereedPubl.oc1 rating>=4.
	ent(t, c, Yes, "rating >= 4", "rating >= 7")
	// Weakened oc2 case: rating>=3 does NOT entail rating>=4.
	ent(t, c, No, "rating >= 4", "rating >= 3")
	// §3: intraobject condition + oc2 yields rating>=7 for ref?=true objects.
	ent(t, c, Yes, "rating >= 7", "ref? = true", "ref?=true implies rating >= 7")
	// Conditional entailment with guards.
	ent(t, c, Yes, "publisher.name='ACM' implies rating >= 5",
		"publisher.name='ACM' implies rating >= 6")
	ent(t, c, No, "publisher.name='ACM' implies rating >= 7",
		"publisher.name='ACM' implies rating >= 6")
	// Membership entailment: {12,17,22} ⊆ [12,22].
	ent(t, c, Yes, "trav_reimb >= 12", "trav_reimb in {12,17,22}")
	ent(t, c, Yes, "trav_reimb in {10,12,17,22,30}", "trav_reimb in {12,17,22}")
	ent(t, c, No, "trav_reimb in {12,17}", "trav_reimb in {12,17,22}")
}

func TestEntailsAllAndEquivalent(t *testing.T) {
	c := typed()
	prem := []expr.Node{expr.MustParse("rating >= 7")}
	concl := []expr.Node{expr.MustParse("rating >= 4"), expr.MustParse("rating >= 2")}
	if got := c.EntailsAll(prem, concl); got != Yes {
		t.Errorf("EntailsAll = %v", got)
	}
	concl = append(concl, expr.MustParse("rating >= 8"))
	if got := c.EntailsAll(prem, concl); got != No {
		t.Errorf("EntailsAll with failing conclusion = %v", got)
	}
	if got := c.Equivalent(expr.MustParse("rating >= 4"), expr.MustParse("not (rating < 4)")); got != Yes {
		t.Errorf("Equivalent = %v", got)
	}
	if got := c.Equivalent(expr.MustParse("rating >= 4"), expr.MustParse("rating >= 5")); got != No {
		t.Errorf("Equivalent strict = %v", got)
	}
}

func TestConflicting(t *testing.T) {
	c := typed()
	a := expr.MustParse("rating >= 7")
	b := expr.MustParse("rating <= 3")
	if got := c.Conflicting(a, b); got != Yes {
		t.Errorf("Conflicting = %v", got)
	}
	if got := c.Conflicting(a, expr.MustParse("rating >= 2")); got != No {
		t.Errorf("non-conflict = %v", got)
	}
}

func TestOpaqueAtomsSoundness(t *testing.T) {
	c := typed()
	// contains() is opaque: satisfiability cannot be definitively Yes...
	sat(t, c, Unknown, "contains(title, 'Proceed')")
	// ...but propositional contradiction over the same opaque atom is No.
	sat(t, c, No, "contains(title, 'Proceed')", "not contains(title, 'Proceed')")
	// And interpreted contradictions still refute despite opaque noise.
	sat(t, c, No, "contains(title, 'X')", "rating >= 7", "rating <= 3")
	// Entailment through an opaque premise is still sound where provable.
	ent(t, c, Yes, "rating >= 4", "contains(title, 'X')", "rating >= 7")
	// Identical opaque atom entails itself.
	ent(t, c, Yes, "contains(title, 'X')", "contains(title, 'X')")
}

func TestOutsideFragment(t *testing.T) {
	c := typed()
	// Aggregates and quantifiers are outside the fragment.
	if got := c.Satisfiable(expr.MustParse("(avg (collect x for x in self) over rating) < 4")); got != Unknown {
		t.Errorf("aggregate: %v", got)
	}
	if got := c.Satisfiable(expr.MustParse("forall p in P | p.x = 1")); got != Unknown {
		t.Errorf("quantifier: %v", got)
	}
	if got := c.Entails(nil, expr.MustParse("key isbn")); got != Unknown {
		t.Errorf("key: %v", got)
	}
	// String ordering between attributes: sat must not be definitive.
	if got := c.Satisfiable(expr.MustParse("publisher.name < other")); got != Unknown {
		t.Errorf("string ordering: %v", got)
	}
}

func TestStaticConstantComparisons(t *testing.T) {
	c := typed()
	sat(t, c, Yes, "1 < 2")
	sat(t, c, No, "2 < 1")
	sat(t, c, Yes, "1 + 1 = 2")
	sat(t, c, Yes, "3 * 2 - 1 = 5", "rating >= 1")
	sat(t, c, No, "2 = 3")
	// Folding with reals and division.
	sat(t, c, Yes, "(14 + 24) / 2 = 19")
}

func TestFoldConst(t *testing.T) {
	cases := []struct {
		src  string
		want object.Value
	}{
		{"1 + 2", object.Int(3)},
		{"10 / 4", object.Real(2.5)},
		{"2 * 2.5", object.Real(5)},
		{"-3", object.Int(-3)},
		{"-(2.5)", object.Real(-2.5)},
		{"(10 + 14) / 2", object.Real(12)},
	}
	for _, cse := range cases {
		n := expr.MustParse("x = " + cse.src).(expr.Binary).R
		v, ok := FoldConst(n)
		if !ok || !v.Equal(cse.want) {
			t.Errorf("FoldConst(%s) = %v,%v; want %v", cse.src, v, ok, cse.want)
		}
	}
	if _, ok := FoldConst(expr.MustParse("x = rating + 1").(expr.Binary).R); ok {
		t.Error("non-constant should not fold")
	}
	if _, ok := FoldConst(expr.MustParse("x = 1/0").(expr.Binary).R); ok {
		t.Error("division by zero should not fold")
	}
	// Int arithmetic folds exactly, as the walker computes it; an
	// overflow, which the walker reports as an error, does not fold.
	for _, cse := range []struct {
		src  string
		want object.Value
	}{
		{"9007199254740991 + 2", object.Int(1<<53 + 1)},
		{"9007199254740993 - 0", object.Int(1<<53 + 1)},
		{"-(9007199254740993 * 1)", object.Int(-(1<<53 + 1))},
	} {
		v, ok := FoldConst(expr.MustParse("x = " + cse.src).(expr.Binary).R)
		if !ok || !v.Equal(cse.want) || v.Kind() != object.KindInt {
			t.Errorf("FoldConst(%s) = %v,%v; want %v", cse.src, v, ok, cse.want)
		}
	}
	for _, src := range []string{"4611686018427387904 * 4", "9223372036854775807 + 1", "-9223372036854775807 - 2", "-(-9223372036854775807 - 1)"} {
		if v, ok := FoldConst(expr.MustParse("x = " + src).(expr.Binary).R); ok {
			t.Errorf("FoldConst(%s) = %v; an Int overflow should not fold", src, v)
		}
	}
	if v, ok := FoldConst(expr.MustParse("x = null + 1").(expr.Binary).R); ok {
		t.Errorf("FoldConst(null + 1) = %v; arithmetic on null should not fold", v)
	}
	// Set literal folding.
	v, ok := FoldConst(expr.MustParse("x in {1,2,3}").(expr.In).Set)
	if !ok || v.(object.Set).Len() != 3 {
		t.Errorf("set fold: %v %v", v, ok)
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{"a = 1 and b = 2", []string{"a = 1", "b = 2"}},
		{"a = 1 and b = 2 and c = 3", []string{"a = 1", "b = 2", "c = 3"}},
		{"g = 1 implies (a = 1 and b = 2)", []string{"g = 1 implies a = 1", "g = 1 implies b = 2"}},
		{"a = 1 or b = 2", []string{"a = 1 or b = 2"}},
		{"not (not (a = 1))", []string{"a = 1"}},
		{"g=1 implies h=2 implies (a=1 and b=2)",
			[]string{"g = 1 implies h = 2 implies a = 1", "g = 1 implies h = 2 implies b = 2"}},
	}
	for _, c := range cases {
		got := Normalize(expr.MustParse(c.src))
		if len(got) != len(c.want) {
			t.Errorf("Normalize(%q) = %v, want %v", c.src, got, c.want)
			continue
		}
		for i := range got {
			if got[i].String() != c.want[i] {
				t.Errorf("Normalize(%q)[%d] = %q, want %q", c.src, i, got[i], c.want[i])
			}
		}
	}
}

func TestExtractRestriction(t *testing.T) {
	r, ok := ExtractRestriction(expr.MustParse("rating >= 6"))
	if !ok || r.Path != "rating" || r.Op != expr.OpGe || !r.Val.Equal(object.Int(6)) || r.Guard != nil {
		t.Fatalf("simple bound: %+v %v", r, ok)
	}
	r, ok = ExtractRestriction(expr.MustParse("publisher.name='ACM' implies rating >= 6"))
	if !ok || r.Path != "rating" || r.Guard == nil {
		t.Fatalf("guarded bound: %+v %v", r, ok)
	}
	if r.Guard.String() != "publisher.name = 'ACM'" {
		t.Errorf("guard: %s", r.Guard)
	}
	r, ok = ExtractRestriction(expr.MustParse("trav_reimb in {10,20}"))
	if !ok || !r.IsSet() || r.Set.Len() != 2 {
		t.Fatalf("set restriction: %+v %v", r, ok)
	}
	r, ok = ExtractRestriction(expr.MustParse("6 <= rating"))
	if !ok || r.Op != expr.OpGe {
		t.Fatalf("flipped bound: %+v %v", r, ok)
	}
	for _, src := range []string{
		"a = 1 and b = 2",
		"rating >= ourprice",
		"x not in {1}",
		"(avg (collect x for x in self) over rating) < 4",
		"a = 1 or b = 2",
	} {
		if _, ok := ExtractRestriction(expr.MustParse(src)); ok {
			t.Errorf("ExtractRestriction(%q) should fail", src)
		}
	}
}

func TestRestrictionToExprRoundTrip(t *testing.T) {
	for _, src := range []string{
		"rating >= 6",
		"publisher.name = 'ACM' implies rating >= 6",
		"trav_reimb in {12,17,22}",
	} {
		r, ok := ExtractRestriction(expr.MustParse(src))
		if !ok {
			t.Fatalf("extract %q", src)
		}
		back := r.ToExpr()
		r2, ok := ExtractRestriction(back)
		if !ok {
			t.Fatalf("re-extract %q", back)
		}
		if r2.Path != r.Path || r2.Op != r.Op {
			t.Errorf("round trip mismatch for %q: %+v vs %+v", src, r, r2)
		}
	}
}

func TestBranchBudget(t *testing.T) {
	c := &Checker{MaxBranches: 2}
	// 2^4 branches exceeds the budget of 2 → Unknown.
	ns := []expr.Node{
		expr.MustParse("a = 1 or a = 2"),
		expr.MustParse("b = 1 or b = 2"),
		expr.MustParse("c = 1 or c = 2"),
		expr.MustParse("d = 1 or d = 2"),
		expr.MustParse("a = 0"),
	}
	if got := c.Satisfiable(ns...); got != Unknown {
		t.Errorf("budget exhaustion should be Unknown, got %v", got)
	}
}

func TestVerdictString(t *testing.T) {
	if Yes.String() != "yes" || No.String() != "no" || Unknown.String() != "unknown" {
		t.Error("verdict strings")
	}
}

func TestPaperIntroExampleConstraints(t *testing.T) {
	// DB1: trav_reimb in {10,20}, salary < 1500. DB2: trav_reimb in {14,24}.
	// For an employee in both, raw union of the tariff constraints is
	// inconsistent — exactly the "apparent conflict" of the introduction.
	c := typed()
	sat(t, c, No, "trav_reimb in {10,20}", "trav_reimb in {14,24}")
	// The avg-derived global constraint is consistent.
	sat(t, c, Yes, "trav_reimb in {12,17,22}")
	// And salary < 1500 stays locally satisfiable.
	sat(t, c, Yes, "trav_reimb in {12,17,22}", "salary < 1500")
}
