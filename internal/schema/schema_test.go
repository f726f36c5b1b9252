package schema

import (
	"reflect"
	"strings"
	"testing"

	"interopdb/internal/object"
)

// libSchema builds the CSLibrary half of Figure 1 (structure only).
func libSchema(t *testing.T) *Database {
	t.Helper()
	d := NewDatabase("CSLibrary")
	add := func(c *Class) {
		if err := d.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	add(&Class{Name: "Publication", Attrs: []Attribute{
		{"title", object.TString}, {"isbn", object.TString},
		{"publisher", object.TString}, {"shopprice", object.TReal},
		{"ourprice", object.TReal},
	}, Constraints: []Constraint{
		{Name: "oc1", Kind: ObjectConstraint, Class: "Publication"},
		{Name: "oc2", Kind: ObjectConstraint, Class: "Publication"},
		{Name: "cc1", Kind: ClassConstraint, Class: "Publication"},
		{Name: "cc2", Kind: ClassConstraint, Class: "Publication"},
	}})
	add(&Class{Name: "ScientificPubl", Super: "Publication", Attrs: []Attribute{
		{"editors", object.SetType{Elem: object.TString}},
		{"rating", object.RangeType{Lo: 1, Hi: 5}},
	}, Constraints: []Constraint{
		{Name: "cc1", Kind: ClassConstraint, Class: "ScientificPubl"},
	}})
	add(&Class{Name: "RefereedPubl", Super: "ScientificPubl", Attrs: []Attribute{
		{"avgAccRate", object.TReal},
	}, Constraints: []Constraint{
		{Name: "oc1", Kind: ObjectConstraint, Class: "RefereedPubl"},
	}})
	add(&Class{Name: "NonRefereedPubl", Super: "ScientificPubl", Attrs: []Attribute{
		{"authAffil", object.TString},
	}, Constraints: []Constraint{
		{Name: "oc1", Kind: ObjectConstraint, Class: "NonRefereedPubl"},
	}})
	add(&Class{Name: "ProfessionalPubl", Super: "Publication", Attrs: []Attribute{
		{"authors", object.SetType{Elem: object.TString}},
	}})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSupersChain(t *testing.T) {
	d := libSchema(t)
	got := d.Supers("RefereedPubl")
	want := []string{"RefereedPubl", "ScientificPubl", "Publication"}
	if len(got) != len(want) {
		t.Fatalf("Supers = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Supers = %v, want %v", got, want)
		}
	}
}

func TestIsA(t *testing.T) {
	d := libSchema(t)
	cases := []struct {
		sub, super string
		want       bool
	}{
		{"RefereedPubl", "Publication", true},
		{"RefereedPubl", "ScientificPubl", true},
		{"RefereedPubl", "RefereedPubl", true},
		{"Publication", "RefereedPubl", false},
		{"ProfessionalPubl", "ScientificPubl", false},
		{"NonRefereedPubl", "Publication", true},
	}
	for _, c := range cases {
		if got := d.IsA(c.sub, c.super); got != c.want {
			t.Errorf("IsA(%s,%s) = %v, want %v", c.sub, c.super, got, c.want)
		}
	}
}

func TestSubclasses(t *testing.T) {
	d := libSchema(t)
	got := d.Subclasses("ScientificPubl")
	if len(got) != 2 || got[0] != "RefereedPubl" || got[1] != "NonRefereedPubl" {
		t.Errorf("Subclasses = %v", got)
	}
	if got := d.Subclasses("Publication"); len(got) != 4 {
		t.Errorf("Subclasses(Publication) = %v", got)
	}
}

func TestAllAttrsInheritance(t *testing.T) {
	d := libSchema(t)
	attrs := d.AllAttrs("RefereedPubl")
	names := map[string]bool{}
	for _, a := range attrs {
		names[a.Name] = true
	}
	for _, want := range []string{"avgAccRate", "editors", "rating", "title", "isbn", "publisher", "shopprice", "ourprice"} {
		if !names[want] {
			t.Errorf("RefereedPubl should inherit attribute %s; have %v", want, names)
		}
	}
	if len(attrs) != 8 {
		t.Errorf("expected 8 attributes, got %d", len(attrs))
	}
}

func TestResolveAttr(t *testing.T) {
	d := libSchema(t)
	a, cls, ok := d.ResolveAttr("RefereedPubl", "isbn")
	if !ok || cls != "Publication" || a.Name != "isbn" {
		t.Errorf("ResolveAttr(isbn) = %v %q %v", a, cls, ok)
	}
	a, cls, ok = d.ResolveAttr("RefereedPubl", "rating")
	if !ok || cls != "ScientificPubl" {
		t.Errorf("ResolveAttr(rating) = %v %q %v", a, cls, ok)
	}
	if _, _, ok := d.ResolveAttr("RefereedPubl", "nope"); ok {
		t.Error("ResolveAttr should fail for unknown attribute")
	}
}

func TestAttributeOverride(t *testing.T) {
	d := NewDatabase("D")
	_ = d.AddClass(&Class{Name: "A", Attrs: []Attribute{{"x", object.TReal}}})
	_ = d.AddClass(&Class{Name: "B", Super: "A", Attrs: []Attribute{{"x", object.RangeType{Lo: 1, Hi: 5}}}})
	a, cls, ok := d.ResolveAttr("B", "x")
	if !ok || cls != "B" {
		t.Fatalf("nearest declaration should win: got class %q", cls)
	}
	if _, isRange := a.Type.(object.RangeType); !isRange {
		t.Error("override type should be the refined range")
	}
	if n := len(d.AllAttrs("B")); n != 1 {
		t.Errorf("AllAttrs should dedup overridden names, got %d", n)
	}
}

func TestObjectConstraintInheritance(t *testing.T) {
	d := libSchema(t)
	ocs := d.AllObjectConstraints("RefereedPubl")
	// own oc1 + Publication's oc1,oc2 (ScientificPubl has only a class constraint)
	if len(ocs) != 3 {
		t.Fatalf("AllObjectConstraints(RefereedPubl) = %d constraints", len(ocs))
	}
	// Class constraints are not inherited:
	for _, c := range ocs {
		if c.Kind != ObjectConstraint {
			t.Errorf("non-object constraint leaked: %v", c)
		}
	}
}

func TestOwnConstraints(t *testing.T) {
	d := libSchema(t)
	if got := d.OwnConstraints("Publication", ClassConstraint); len(got) != 2 {
		t.Errorf("Publication class constraints = %d", len(got))
	}
	if got := d.OwnConstraints("RefereedPubl", ClassConstraint); len(got) != 0 {
		t.Errorf("RefereedPubl class constraints = %d", len(got))
	}
	if got := d.OwnConstraints("Nope", ObjectConstraint); got != nil {
		t.Error("unknown class should yield nil")
	}
}

func TestValidateErrors(t *testing.T) {
	d := NewDatabase("Bad")
	_ = d.AddClass(&Class{Name: "A", Super: "Missing"})
	_ = d.AddClass(&Class{Name: "B", Attrs: []Attribute{{"x", object.TInt}, {"x", object.TReal}}})
	_ = d.AddClass(&Class{Name: "C", Constraints: []Constraint{{Name: "db1", Kind: DatabaseConstraint}}})
	err := d.Validate()
	if err == nil {
		t.Fatal("expected validation errors")
	}
	msg := err.Error()
	for _, want := range []string{"unknown superclass", "duplicate attribute", "database constraint"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error should mention %q: %s", want, msg)
		}
	}
}

func TestValidateCycle(t *testing.T) {
	d := NewDatabase("Cyc")
	_ = d.AddClass(&Class{Name: "A", Super: "B"})
	_ = d.AddClass(&Class{Name: "B", Super: "A"})
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("expected cycle error, got %v", err)
	}
}

func TestRedeclaredClass(t *testing.T) {
	d := NewDatabase("D")
	if err := d.AddClass(&Class{Name: "A"}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddClass(&Class{Name: "A"}); err == nil {
		t.Fatal("redeclaration should error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := libSchema(t)
	c := d.Clone()
	cc := c.MustClass("Publication")
	cc.Attrs[0].Name = "renamed"
	cc.Constraints = cc.Constraints[:1]
	if d.MustClass("Publication").Attrs[0].Name != "title" {
		t.Error("clone should not share attribute slices")
	}
	if len(d.MustClass("Publication").Constraints) != 4 {
		t.Error("clone should not share constraint slices")
	}
	if got := c.ClassNames(); len(got) != 5 {
		t.Errorf("clone class order: %v", got)
	}
}

func TestRootsAndNames(t *testing.T) {
	d := libSchema(t)
	roots := d.Roots()
	if len(roots) != 1 || roots[0] != "Publication" {
		t.Errorf("Roots = %v", roots)
	}
	if names := d.ClassNames(); names[0] != "Publication" || len(names) != 5 {
		t.Errorf("ClassNames = %v", names)
	}
}

func TestMustClassPanics(t *testing.T) {
	d := libSchema(t)
	defer func() {
		if recover() == nil {
			t.Error("MustClass should panic on unknown class")
		}
	}()
	d.MustClass("Nope")
}

func TestConstraintKindString(t *testing.T) {
	if ObjectConstraint.String() != "object" || ClassConstraint.String() != "class" ||
		DatabaseConstraint.String() != "database" {
		t.Error("kind names")
	}
	if ConstraintKind(9).String() != "kind(9)" {
		t.Error("unknown kind")
	}
}

// walkSchema is the hierarchy-walk contract's fixture: a healthy chain
// with an override by name (C isa B isa A), a self-cycle (S), a 2-cycle
// (P, Q), a tail hanging off the 2-cycle (T), and a chain whose middle
// class was never declared (X isa Ghost).
func walkSchema() *Database {
	d := NewDatabase("Walk")
	oc := func(class, name string) Constraint {
		return Constraint{Name: name, Kind: ObjectConstraint, Class: class}
	}
	for _, c := range []*Class{
		{Name: "A", Attrs: []Attribute{{"x", object.TReal}, {"a", object.TString}},
			Constraints: []Constraint{oc("A", "a1"), {Name: "ak", Kind: ClassConstraint, Class: "A"}}},
		{Name: "B", Super: "A", Attrs: []Attribute{{"x", object.TInt}, {"b", object.TString}},
			Constraints: []Constraint{oc("B", "b1")}},
		{Name: "C", Super: "B", Attrs: []Attribute{{"c", object.TString}},
			Constraints: []Constraint{oc("C", "c1"), oc("C", "c2")}},
		{Name: "S", Super: "S", Attrs: []Attribute{{"s", object.TInt}}},
		{Name: "P", Super: "Q", Attrs: []Attribute{{"p", object.TInt}}},
		{Name: "Q", Super: "P", Attrs: []Attribute{{"q", object.TInt}}},
		{Name: "T", Super: "P"},
		{Name: "X", Super: "Ghost", Attrs: []Attribute{{"x", object.TInt}}},
	} {
		_ = d.AddClass(c)
	}
	return d
}

// TestHierarchyWalkContract pins what Supers, IsA, ResolveAttr, AllAttrs
// and AllObjectConstraints answer on healthy, cyclic and dangling
// hierarchies: a walk stops at the first repeat and at an undeclared
// class, and everything inherited comes nearest declaration first.
func TestHierarchyWalkContract(t *testing.T) {
	d := walkSchema()
	for _, tc := range []struct {
		class string
		want  []string
	}{
		{"C", []string{"C", "B", "A"}},
		{"A", []string{"A"}},
		{"S", []string{"S"}},
		{"P", []string{"P", "Q"}},
		{"Q", []string{"Q", "P"}},
		{"T", []string{"T", "P", "Q"}},
		{"X", []string{"X"}},
		{"Ghost", nil},
		{"", nil},
	} {
		if got := d.Supers(tc.class); len(got)+len(tc.want) > 0 && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Supers(%q) = %v, want %v", tc.class, got, tc.want)
		}
	}
	for _, tc := range []struct {
		sub, super string
		want       bool
	}{
		{"C", "A", true}, {"C", "C", true}, {"A", "C", false},
		{"S", "S", true}, {"S", "A", false},
		{"P", "Q", true}, {"Q", "P", true}, {"T", "Q", true}, {"P", "T", false},
		{"X", "X", true}, {"X", "Ghost", false},
		{"Ghost", "Ghost", false}, {"Ghost", "A", false}, {"", "", false},
	} {
		if got := d.IsA(tc.sub, tc.super); got != tc.want {
			t.Errorf("IsA(%q, %q) = %v, want %v", tc.sub, tc.super, got, tc.want)
		}
	}
	for _, tc := range []struct {
		class, attr, owner string
		typ                any
		ok                 bool
	}{
		{"C", "x", "B", object.TInt, true}, // nearest override, not A's real
		{"C", "a", "A", object.TString, true},
		{"C", "c", "C", object.TString, true},
		{"A", "b", "", nil, false},
		{"T", "q", "Q", object.TInt, true},
		{"S", "nope", "", nil, false},
		{"P", "nope", "", nil, false},
		{"X", "x", "X", object.TInt, true},
		{"Ghost", "x", "", nil, false},
	} {
		a, owner, ok := d.ResolveAttr(tc.class, tc.attr)
		if ok != tc.ok || owner != tc.owner || (ok && (a.Name != tc.attr || a.Type != tc.typ)) {
			t.Errorf("ResolveAttr(%q, %q) = %v, %q, %v; want type %v, %q, %v", tc.class, tc.attr, a, owner, ok, tc.typ, tc.owner, tc.ok)
		}
	}
	var attrs, cons []string
	for _, a := range d.AllAttrs("C") {
		attrs = append(attrs, a.Name)
	}
	if want := []string{"c", "x", "b", "a"}; !reflect.DeepEqual(attrs, want) {
		t.Errorf("AllAttrs(C) = %v, want nearest first %v", attrs, want)
	}
	for _, c := range d.AllObjectConstraints("C") {
		cons = append(cons, c.Name)
	}
	if want := []string{"c1", "c2", "b1", "a1"}; !reflect.DeepEqual(cons, want) {
		t.Errorf("AllObjectConstraints(C) = %v, want nearest first %v", cons, want)
	}
	if got := d.AllAttrs("Ghost"); len(got) != 0 {
		t.Errorf("AllAttrs(Ghost) = %v", got)
	}
	err := d.Validate()
	for _, want := range []string{"class S: isa cycle through S", "class P: isa cycle through P",
		"class Q: isa cycle through Q", "class T: isa cycle through P", "class X: unknown superclass Ghost"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Validate should report %q: %v", want, err)
		}
	}
}

// TestHierarchyWalkAllocs pins the walks' allocation cost: IsA and
// ResolveAttr walk the declarations in place, Supers allocates its
// result and nothing else — on a cyclic hierarchy too.
func TestHierarchyWalkAllocs(t *testing.T) {
	d := walkSchema()
	for _, tc := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"IsA", 0, func() { d.IsA("C", "A"); d.IsA("C", "nope"); d.IsA("T", "nope") }},
		{"ResolveAttr", 0, func() { d.ResolveAttr("C", "a"); d.ResolveAttr("T", "nope") }},
		{"Supers", 1, func() { d.Supers("C") }},
		{"Supers on a cycle", 1, func() { d.Supers("T") }},
		{"Supers undeclared", 0, func() { d.Supers("Ghost") }},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got != tc.want {
			t.Errorf("%s: %v allocations per run, want %v", tc.name, got, tc.want)
		}
	}
}
