package core

import (
	"strings"
	"testing"

	"interopdb/internal/fixture"
	"interopdb/internal/object"
	"interopdb/internal/schema"
	"interopdb/internal/store"
	"interopdb/internal/tm"
)

func fig1Conformed(t testing.TB, opt fixture.Options) *Conformed {
	local, remote := fixture.Figure1Stores(opt)
	if vs := local.CheckAll(); len(vs) != 0 {
		t.Fatalf("local fixture inconsistent: %v", vs)
	}
	if vs := remote.CheckAll(); len(vs) != 0 {
		t.Fatalf("remote fixture inconsistent: %v", vs)
	}
	s := fig1Spec(t)
	c, err := Conform(s, local, remote)
	if err != nil {
		t.Fatalf("Conform: %v", err)
	}
	return c
}

// findCon locates a conformed constraint by its original key.
func findCon(t testing.TB, c *Conformed, key ConKey) CCon {
	t.Helper()
	for _, con := range c.Cons {
		if con.Key == key {
			return con
		}
	}
	t.Fatalf("conformed constraint %s not found", key)
	return CCon{}
}

// TestE4ConformVirtPublisher reproduces §4's first example: Publication's
// oc2 "publisher in KNOWNPUBLISHERS" is re-allocated to the virtual class
// VirtPublisher as "name in KNOWNPUBLISHERS".
func TestE4ConformVirtPublisher(t *testing.T) {
	c := fig1Conformed(t, fixture.Options{})
	con := findCon(t, c, ConKey{"CSLibrary", "Publication", "oc2"})
	if con.Class != "VirtPublisher" {
		t.Errorf("oc2 should be re-allocated to VirtPublisher, got %s", con.Class)
	}
	if got := con.Expr.String(); got != "name in KNOWNPUBLISHERS" {
		t.Errorf("conformed oc2 = %q, want %q", got, "name in KNOWNPUBLISHERS")
	}
	if !strings.Contains(con.Note, "re-allocated") {
		t.Errorf("note = %q", con.Note)
	}
	// The virtual class exists on the local side with the conformed
	// attribute name.
	vc, ok := c.LocalSchema.Class("VirtPublisher")
	if !ok || !vc.Virtual {
		t.Fatal("VirtPublisher class missing")
	}
	if a, _, ok := c.LocalSchema.ResolveAttr("VirtPublisher", "name"); !ok || !a.Type.(object.Type).EqualType(object.TString) {
		t.Error("VirtPublisher.name missing or mistyped")
	}
	// Publication.publisher is now a reference to the virtual class.
	a, _, _ := c.LocalSchema.ResolveAttr("Publication", "publisher")
	if ct, ok := a.Type.(object.ClassType); !ok || ct.Class != "VirtPublisher" {
		t.Errorf("Publication.publisher conformed type = %v", a.Type)
	}
}

// TestE4ConformRatingScale reproduces §4's second example: RefereedPubl's
// oc1 "rating >= 2" conformed through multiply(2) becomes "rating >= 4".
func TestE4ConformRatingScale(t *testing.T) {
	c := fig1Conformed(t, fixture.Options{})
	con := findCon(t, c, ConKey{"CSLibrary", "RefereedPubl", "oc1"})
	if got := con.Expr.String(); got != "rating >= 4" {
		t.Errorf("conformed RefereedPubl.oc1 = %q, want %q", got, "rating >= 4")
	}
	// NonRefereedPubl.oc1: rating <= 3 → rating <= 6.
	con = findCon(t, c, ConKey{"CSLibrary", "NonRefereedPubl", "oc1"})
	if got := con.Expr.String(); got != "rating <= 6" {
		t.Errorf("conformed NonRefereedPubl.oc1 = %q, want %q", got, "rating <= 6")
	}
	// The class constraint's aggregate converts too: avg rating < 4 → < 8.
	con = findCon(t, c, ConKey{"CSLibrary", "ScientificPubl", "cc1"})
	if got := con.Expr.String(); !strings.Contains(got, "< 8") {
		t.Errorf("conformed ScientificPubl.cc1 = %q, want avg < 8", got)
	}
	if con.Imperfect {
		t.Errorf("avg commutes with multiply(2); should not be imperfect: %s", con.Note)
	}
	// Remote constraints keep their scale (cf' = id).
	con = findCon(t, c, ConKey{"Bookseller", "Proceedings", "oc2"})
	if got := con.Expr.String(); got != "ref? = true implies rating >= 7" {
		t.Errorf("conformed Proceedings.oc2 = %q", got)
	}
}

// TestConformAttributeRenames checks §4 subtask 2: ourprice becomes
// libprice, editors becomes authors.
func TestConformAttributeRenames(t *testing.T) {
	c := fig1Conformed(t, fixture.Options{})
	con := findCon(t, c, ConKey{"CSLibrary", "Publication", "oc1"})
	if got := con.Expr.String(); got != "libprice <= shopprice" {
		t.Errorf("conformed Publication.oc1 = %q, want %q", got, "libprice <= shopprice")
	}
	if con.Imperfect {
		t.Errorf("identity conversions should conform perfectly: %s", con.Note)
	}
	// Schema side.
	if _, _, ok := c.LocalSchema.ResolveAttr("Publication", "libprice"); !ok {
		t.Error("Publication.ourprice should be renamed to libprice")
	}
	if _, _, ok := c.LocalSchema.ResolveAttr("Publication", "ourprice"); ok {
		t.Error("ourprice should no longer exist")
	}
	if _, _, ok := c.LocalSchema.ResolveAttr("ScientificPubl", "authors"); !ok {
		t.Error("editors should be renamed to authors")
	}
	// Rating type conformed to the remote scale: 1..5 ×2 = 2..10.
	a, _, _ := c.LocalSchema.ResolveAttr("ScientificPubl", "rating")
	if rt, ok := a.Type.(object.RangeType); !ok || rt.Lo != 2 || rt.Hi != 10 {
		t.Errorf("conformed rating type = %v", a.Type)
	}
	// The reasoner sees the widened union of both sides' ranges.
	if rt, ok := c.Types["rating"].(object.RangeType); !ok || rt.Lo != 1 || rt.Hi != 10 {
		t.Errorf("Types[rating] = %v, want 1..10", c.Types["rating"])
	}
}

// TestConformObjects checks object conformation: values converted,
// renamed, and publisher values objectified into shared virtual objects.
func TestConformObjects(t *testing.T) {
	c := fig1Conformed(t, fixture.Options{})
	// The local VLDB proceedings: rating 4 → 8, ourprice 75 → libprice 75.
	var vldb *CObj
	for _, o := range c.Extent(LocalSide, "Publication") {
		if ttl, _ := o.Get("title"); ttl.Equal(object.Str("Proceedings of the 22nd VLDB Conference")) {
			vldb = o
		}
	}
	if vldb == nil {
		t.Fatal("local vldb96 not conformed")
	}
	if v, _ := vldb.Get("rating"); !v.Equal(object.Int(8)) {
		t.Errorf("conformed rating = %v, want 8", v)
	}
	if v, _ := vldb.Get("libprice"); !v.Equal(object.Real(75)) {
		t.Errorf("conformed libprice = %v", v)
	}
	if _, ok := vldb.Get("ourprice"); ok {
		t.Error("ourprice should be renamed away")
	}
	if v, ok := vldb.Get("authors"); !ok || v.(object.Set).Len() != 2 {
		t.Errorf("editors→authors = %v", v)
	}
	// publisher is a reference to a virtual object carrying name='IEEE'.
	pv, ok := vldb.Get("publisher")
	if !ok {
		t.Fatal("publisher missing")
	}
	ref, ok := pv.(object.Ref)
	if !ok {
		t.Fatalf("publisher should be a reference, got %v", pv)
	}
	vo, ok := c.Deref(ref)
	if !ok {
		t.Fatal("virtual publisher unresolvable")
	}
	if name, _ := vo.Get("name"); !name.Equal(object.Str("IEEE")) {
		t.Errorf("virtual publisher name = %v", name)
	}
	// Virtual objects are shared: 4 distinct publisher values → 4 objects
	// (IEEE, ACM, Springer, Addison-Wesley).
	if n := len(c.Objects(LocalSide, "VirtPublisher")); n != 4 {
		t.Errorf("VirtPublisher objects = %d, want 4", n)
	}
	// Conformed constraints evaluate over conformed objects: the moved
	// oc2 holds for every virtual publisher.
	for _, vo := range c.Objects(LocalSide, "VirtPublisher") {
		env := c.Env(vo)
		holds, err := env.EvalBool(findCon(t, c, ConKey{"CSLibrary", "Publication", "oc2"}).Expr)
		if err != nil || !holds {
			t.Errorf("conformed oc2 on %s: %v %v", vo, holds, err)
		}
	}
}

// TestConformImpliedEqRule checks that descriptivity conformation emits
// the implied equality rule between VirtPublisher and Publisher.
func TestConformImpliedEqRule(t *testing.T) {
	c := fig1Conformed(t, fixture.Options{})
	if len(c.ImpliedEq) != 1 {
		t.Fatalf("ImpliedEq = %d", len(c.ImpliedEq))
	}
	r := c.ImpliedEq[0]
	if r.LocalClass != "VirtPublisher" || r.RemoteClass != "Publisher" {
		t.Errorf("implied rule classes: %s / %s", r.LocalClass, r.RemoteClass)
	}
	if len(r.Inter) != 1 || r.Inter[0].String() != "O.name = R.name" {
		t.Errorf("implied rule condition: %v", r.Inter)
	}
}

// TestConformDecreasingConversion checks comparison flipping through a
// decreasing conversion.
func TestConformDecreasingConversion(t *testing.T) {
	localSpec := tm.MustParseDatabase(`
Database L
Class C
  attributes
    score : 1..5
  object constraints
    oc1: score >= 2
end C
`)
	remoteSpec := tm.MustParseDatabase(`
Database R
Class D
  attributes
    rank : 1..5
  object constraints
    oc1: rank <= 3
end D
`)
	// Local score 1..5 (5 best) maps onto remote rank 1..5 (1 best):
	// rank = 6 - score, i.e. linear(-1,6).
	ispec := tm.MustParseIntegration(`
integration L imports R
rule r1: Eq(X:C, Y:D) <= X.score = 6 - Y.rank
propeq(C.score, D.rank, linear(-1,6), id, min)
`)
	spec := MustCompile(localSpec, remoteSpec, ispec)
	ls := store.New(localSpec.Schema, nil)
	rs := store.New(remoteSpec.Schema, nil)
	ls.MustInsert("C", map[string]object.Value{"score": object.Int(4)})
	rs.MustInsert("D", map[string]object.Value{"rank": object.Int(2)})
	c, err := Conform(spec, ls, rs)
	if err != nil {
		t.Fatal(err)
	}
	con := findCon(t, c, ConKey{"L", "C", "oc1"})
	// score >= 2 under rank = 6-score becomes rank <= 4.
	if got := con.Expr.String(); got != "rank <= 4" {
		t.Errorf("decreasing conversion: %q, want %q", got, "rank <= 4")
	}
	// Object values convert: score 4 → rank 2.
	o := c.Extent(LocalSide, "C")[0]
	if v, _ := o.Get("rank"); !v.Equal(object.Int(2)) {
		t.Errorf("converted value = %v, want 2", v)
	}
}

// TestConformStoreMismatch rejects stores that do not match the spec.
func TestConformStoreMismatch(t *testing.T) {
	s := fig1Spec(t)
	wrong := store.New(schema.NewDatabase("Other"), nil)
	if _, err := Conform(s, wrong, wrong); err == nil {
		t.Error("mismatched stores should fail")
	}
}

// TestConsOnScoping: object constraints inherit along the chain; class
// constraints do not.
func TestConsOnScoping(t *testing.T) {
	c := fig1Conformed(t, fixture.Options{})
	ocs := c.ConsOn(RemoteSide, "Proceedings", schema.ObjectConstraint)
	names := map[string]bool{}
	for _, con := range ocs {
		names[con.Key.Class+"."+con.Key.Name] = true
	}
	for _, want := range []string{"Proceedings.oc1", "Proceedings.oc2", "Proceedings.oc3", "Item.oc1"} {
		if !names[want] {
			t.Errorf("ConsOn(Proceedings) missing %s; got %v", want, names)
		}
	}
	ccs := c.ConsOn(RemoteSide, "Proceedings", schema.ClassConstraint)
	if len(ccs) != 0 {
		t.Errorf("class constraints must not inherit: %v", ccs)
	}
	ccs = c.ConsOn(RemoteSide, "Item", schema.ClassConstraint)
	if len(ccs) != 1 || ccs[0].Key.Name != "cc1" {
		t.Errorf("Item class constraints: %v", ccs)
	}
}

// A purpose-built pair for the per-class attribute plan: Volume carries
// an objectified attribute (pub → VirtPublisher) and a value-view one
// (printer stays a value, Trade's Printer is hidden and Stock.printer
// inlines as a tuple); RareVolume inherits both — their descriptivity
// rules are keyed by the declaring class Volume — and overrides cost by
// name under its own propeq.
const (
	planShelfSrc = `
Database Shelf

Class Volume
  attributes
    code : string
    pub : string
    printer : string
    cost : real
    label : string
end Volume

Class RareVolume isa Volume
  attributes
    cost : real
    vault : string
end RareVolume
`
	planTradeSrc = `
Database Trade

Class Publisher
  attributes
    name : string
    city : string
end Publisher

Class Printer
  attributes
    pname : string
    press : string
end Printer

Class Stock
  attributes
    code : string
    publisher : Publisher
    printer : Printer
    price : real
    label : string
end Stock
`
	planIntegrationSrc = `
integration Shelf imports Trade

rule s1: Eq(V:Volume, S:Stock) <= V.code = S.code
rule s2: Eq(V:Volume.{pub}, P:Publisher) <= V.pub = P.name
rule s3: Eq(V:Volume.{printer}, Q:Printer) <= V.printer = Q.pname

propeq(RareVolume.cost, Stock.price, multiply(3), id, any)
propeq(Volume.cost, Stock.price, multiply(2), id, any)
propeq(Volume.pub, Publisher.name, id, id, any)
propeq(Volume.printer, Printer.pname, id, id, any)
propeq(Volume.code, Stock.code, id, id, any)

valueview s3
`
)

// planStores populates the purpose-built pair: volumes with and without
// a label, a rare volume, stock whose printer reference resolves, is
// null, and dangles.
func planStores(t testing.TB) (shelf, trade *tm.DatabaseSpec, ss, ts *store.Store) {
	t.Helper()
	shelf, trade = tm.MustParseDatabase(planShelfSrc), tm.MustParseDatabase(planTradeSrc)
	ss, ts = store.New(shelf.Schema, shelf.Consts), store.New(trade.Schema, trade.Consts)
	ss.Enforce, ts.Enforce = false, false
	str := func(s string) object.Value { return object.Str(s) }
	real := func(f float64) object.Value { return object.Real(f) }
	ss.MustInsert("Volume", map[string]object.Value{"code": str("v1"), "pub": str("North"), "printer": str("Inkwell"), "cost": real(10)})
	ss.MustInsert("Volume", map[string]object.Value{"code": str("v2"), "pub": str("South"), "printer": str("Inkwell"), "cost": real(12), "label": str("second")})
	ss.MustInsert("RareVolume", map[string]object.Value{"code": str("r1"), "pub": str("North"), "printer": str("Quill"), "cost": real(100), "vault": str("B2"), "label": str("rare")})
	north := ts.MustInsert("Publisher", map[string]object.Value{"name": str("North"), "city": str("Oslo")})
	ink := ts.MustInsert("Printer", map[string]object.Value{"pname": str("Inkwell"), "press": str("offset")})
	ref := func(oid object.OID) object.Ref { return object.Ref{DB: "Trade", OID: oid} }
	ts.MustInsert("Stock", map[string]object.Value{"code": str("v1"), "publisher": ref(north), "printer": ref(ink), "price": real(21)})
	ts.MustInsert("Stock", map[string]object.Value{"code": str("s2"), "publisher": ref(north), "printer": object.Null{}, "price": real(5), "label": str("loose")})
	ts.MustInsert("Stock", map[string]object.Value{"code": str("s3"), "publisher": ref(north), "printer": ref(999), "price": real(7)})
	return shelf, trade, ss, ts
}

// dumpConformed renders every conformed object of both sides in
// AllObjects order — class, source, virtual mark, attribute names and
// values — and the virtual-object counter.
func dumpConformed(c *Conformed) string {
	var b strings.Builder
	for _, side := range []Side{LocalSide, RemoteSide} {
		for _, o := range c.AllObjects(side) {
			virt := ""
			if o.Virtual {
				virt = " virtual"
			}
			b.WriteString(side.String() + virt + " " + o.String() + "\n")
		}
	}
	b.WriteString("virtSeq " + object.Int(int64(c.virtSeq)).String() + "\n")
	return b.String()
}

// goldenPair is one of the six fixture pairs the conformation and merge
// goldens run over.
type goldenPair struct {
	name          string
	local, remote *tm.DatabaseSpec
	is            *tm.IntegrationSpec
	ls, rs        *store.Store
}

// goldenPairs returns the committed fixtures and the purpose-built pair.
func goldenPairs(t *testing.T) []goldenPair {
	lib, bs := tm.Figure1Library(), tm.Figure1Bookseller()
	shelf, trade, ss, ts := planStores(t)
	l0, r0 := fixture.Figure1Stores(fixture.Options{})
	l3, r3 := fixture.Figure1Stores(fixture.Options{Scale: 3})
	d1, d2 := fixture.PersonnelStores()
	return []goldenPair{
		{"figure1", lib, bs, tm.Figure1Integration(), l0, r0},
		{"figure1_repaired_scale3", lib, bs, tm.Figure1IntegrationRepaired(), l3, r3},
		{"figure1_valueview", lib, bs, valueViewSpec(t), l0, r0},
		{"archive_scale3", lib, tm.Figure1UnivArchive(), tm.Figure1ArchiveIntegration(), l3, fixture.ArchiveStore(fixture.Options{Scale: 3})},
		{"personnel", tm.Personnel1(), tm.Personnel2(), tm.PersonnelIntegration(), d1, d2},
		{"plan", shelf, trade, tm.MustParseIntegration(planIntegrationSrc), ss, ts},
	}
}

// conform compiles and conforms the pair.
func (p goldenPair) conform(t *testing.T) *Conformed {
	t.Helper()
	spec, err := Compile(p.local, p.remote, p.is)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Conform(spec, p.ls, p.rs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestConformObjectsGolden is the differential for the per-class
// attribute plan: on the committed fixtures and the purpose-built pair,
// conformation produces the objects, attribute sets, values, order and
// virtual-object numbering it produced when every attribute was
// re-resolved per object.
func TestConformObjectsGolden(t *testing.T) {
	for _, tc := range goldenPairs(t) {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, "conform_"+tc.name+".golden", dumpConformed(tc.conform(t)))
		})
	}
}

// TestConformConversionError pins the failure a conversion reports: the
// text, and that it is the first object carrying the attribute (v1 has
// no label, so Shelf#2 is the first to convert one).
func TestConformConversionError(t *testing.T) {
	shelf, trade, ss, ts := planStores(t)
	is := tm.MustParseIntegration(planIntegrationSrc + "propeq(Volume.label, Stock.label, multiply(2), id, any)\n")
	spec, err := Compile(shelf, trade, is)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Conform(spec, ss, ts)
	const want = "conforming Volume.label of Shelf#2: multiply(2): non-numeric value 'second'"
	if err == nil || err.Error() != want {
		t.Fatalf("Conform error = %v, want %q", err, want)
	}
}
