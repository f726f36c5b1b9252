package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"interopdb/internal/expr"
	"interopdb/internal/fixture"
	"interopdb/internal/object"
	"interopdb/internal/store"
	"interopdb/internal/tm"
)

// figure1WithRules is the repaired Figure 1 integration with extra rule
// lines; replace, when non-empty, names a rule line of the fixture the
// first extra line takes the place of.
func figure1WithRules(replace string, rules ...string) string {
	src := tm.FigureOneIntegrationRepaired
	if replace != "" {
		src = strings.Replace(src, replace, rules[0], 1)
		rules = rules[1:]
	}
	header := "integration CSLibrary imports Bookseller\n"
	return strings.Replace(src, header, header+strings.Join(rules, "\n")+"\n", 1)
}

// mergedISBNs returns the isbns of the merged global objects, sorted.
func mergedISBNs(v *GlobalView) []string {
	var out []string
	for _, g := range v.Objects {
		if isbn, ok := g.Get("isbn"); ok && g.Merged() {
			out = append(out, isbn.String())
		}
	}
	slices.Sort(out)
	return out
}

// TestEqRuleConvertsIntraLiteral: an Eq rule's intraobject condition on
// a converted attribute compares in the common domain. The library
// rates 1..5 and conforms ×2, so `O.rating >= 3` must read
// `O.rating >= 6`: the Data Engineering Bulletin (rated 2, conformed 4)
// does not merge with the bookseller's item of the same isbn, the VLDB
// proceedings (rated 4, conformed 8) does.
func TestEqRuleConvertsIntraLiteral(t *testing.T) {
	local, remote := fixture.Figure1Stores(fixture.Options{})
	pub := remote.FindByAttr("Publisher", "name", object.Str("IEEE"))
	if len(pub) != 1 {
		t.Fatal("no IEEE publisher in the bookseller store")
	}
	remote.MustInsert("Item", map[string]object.Value{
		"title": object.Str("Data Engineering Bulletin"), "isbn": object.Str("debull"),
		"publisher": pub[0].Identity(), "shopprice": object.Real(20), "libprice": object.Real(15),
	})
	is := tm.MustParseIntegration(figure1WithRules(
		"rule r1: Eq(O:Publication, R:Item) <= O.isbn = R.isbn",
		"rule r1: Eq(O:ScientificPubl, R:Item) <= O.isbn = R.isbn and O.rating >= 3"))
	res, err := Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), is, local, remote, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mergedISBNs(res.View), []string{"'vldb96'"}; !slices.Equal(got, want) {
		t.Errorf("merged publications = %v, want %v (rule r1 conds %v)", got, want, res.Spec.EqRules[0].Conds)
	}
}

// TestEqRuleReadsObjectifiedAttribute: `publisher` is objectified into a
// reference to VirtPublisher (rule r2), so an Eq rule's `O.publisher =
// 'IEEE'` reads the virtual object's name, as a constraint over it
// would: rule r1 merges exactly the IEEE publications with a matching
// isbn.
func TestEqRuleReadsObjectifiedAttribute(t *testing.T) {
	local, remote := fixture.Figure1Stores(fixture.Options{Scale: 2})
	is := tm.MustParseIntegration(figure1WithRules(
		"rule r1: Eq(O:Publication, R:Item) <= O.isbn = R.isbn",
		"rule r1: Eq(O:Publication, R:Item) <= O.isbn = R.isbn and O.publisher = 'IEEE'"))
	res, err := Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), is, local, remote, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"'vldb96'", "'vldb96-c1'", "'vldb96-c2'"}
	if got := mergedISBNs(res.View); !slices.Equal(got, want) {
		t.Errorf("merged publications = %v, want %v (rule r1 conds %v)", got, want, res.Spec.EqRules[0].Conds)
	}
}

// Tables FuzzRuleConformance builds its one-variable conditions from.
// Each side ranges over a class with a converted attribute (rating,
// multiply(2) on the library side), a renamed one (ourprice becomes
// libprice), the objectified library publisher (the bookseller reads
// its referenced publisher's name) and two plain ones.
var (
	ruleFuzzSides = []struct{ v, class, simTarget string }{
		{"O", "ScientificPubl", "Proceedings"},
		{"R", "Proceedings", "RefereedPubl"},
	}
	ruleFuzzAttrs = [][]string{
		{"rating", "ourprice", "publisher", "title", "shopprice"},
		{"rating", "libprice", "publisher.name", "title", "shopprice"},
	}
	ruleFuzzOps  = []string{"=", "!=", "<", "<=", ">", ">=", "in"}
	ruleFuzzLits = []string{"0", "2", "3", "4", "6", "7", "8", "10", "75", "2.5", "4.0", "70.0", "75.5",
		"'IEEE'", "'ACM'", "'Springer'", "'Proceedings of SIGMOD'", "'M'"}
)

// FuzzRuleConformance: a rule condition means after conformation what
// it meant before. Each input builds one condition over one variable —
// a side, an attribute, an operator, a literal (two for `in`) — and
// places it in an Eq rule and, on its source side, in a Sim rule. After
// Conform, each rule's conformed condition, evaluated on every
// conformed object of the variable's class, gives what the source
// condition gives on the store object it was conformed from. Inputs
// that fail type-checking are skipped.
func FuzzRuleConformance(f *testing.F) {
	local, remote := fixture.Figure1Stores(fixture.Options{})
	for side := range ruleFuzzSides {
		for attr := range ruleFuzzAttrs[side] {
			f.Add(uint8(side), uint8(attr), uint8(5), uint8(2), uint8(0))  // >= 3
			f.Add(uint8(side), uint8(attr), uint8(0), uint8(13), uint8(0)) // = 'IEEE'
		}
	}
	f.Add(uint8(0), uint8(0), uint8(6), uint8(2), uint8(3))   // O.rating in {3, 4}
	f.Add(uint8(0), uint8(2), uint8(6), uint8(13), uint8(14)) // O.publisher in {'IEEE', 'ACM'}
	f.Fuzz(func(t *testing.T, side, attr, op, lit, lit2 uint8) {
		s := int(side) % len(ruleFuzzSides)
		sd := ruleFuzzSides[s]
		o := ruleFuzzOps[int(op)%len(ruleFuzzOps)]
		rhs := ruleFuzzLits[int(lit)%len(ruleFuzzLits)]
		if o == "in" {
			rhs = "{" + rhs + ", " + ruleFuzzLits[int(lit2)%len(ruleFuzzLits)] + "}"
		}
		cond := fmt.Sprintf("%s.%s %s %s", sd.v, ruleFuzzAttrs[s][int(attr)%len(ruleFuzzAttrs[s])], o, rhs)
		is, err := tm.ParseIntegration(figure1WithRules("",
			"rule fz_eq: Eq(O:ScientificPubl, R:Proceedings) <= O.isbn = R.isbn and "+cond,
			fmt.Sprintf("rule fz_sim: Sim(%s:%s, %s) <= %s", sd.v, sd.class, sd.simTarget, cond)))
		if err != nil {
			t.Skip(err)
		}
		spec, err := Compile(tm.Figure1Library(), tm.Figure1Bookseller(), is)
		if err != nil {
			t.Skip(err) // the condition does not type-check
		}
		c, err := Conform(spec, local, remote)
		if err != nil {
			t.Fatal(err)
		}
		eq, sim := spec.EqRules[0], spec.SimRules[0]
		if eq.Raw.Name != "fz_eq" || sim.Raw.Name != "fz_sim" {
			t.Fatalf("rules out of order: %s, %s", eq.Raw.Name, sim.Raw.Name)
		}
		srcCond := sim.Intra[0]
		conformed := map[string]expr.Node{"fz_eq": eq.Conds[len(eq.Conds)-1], "fz_sim": sim.Conds[0]}
		st := []*store.Store{local, remote}[s]
		srcEnv := st.Env(nil)
		srcEnv.Vars = map[string]expr.Object{}
		env := c.ruleEnv()
		for _, co := range c.Extent(Side(s), sd.class) {
			so, ok := st.Get(co.Src.OID)
			if !ok {
				t.Fatalf("conformed %s has no store object", co.Src)
			}
			srcEnv.Vars[sd.v] = so
			want, wantErr := srcEnv.EvalBool(srcCond)
			env.Vars[sd.v] = co
			for _, rule := range []string{"fz_eq", "fz_sim"} {
				got, gotErr := env.EvalBool(conformed[rule])
				if got != want || (gotErr != nil) != (wantErr != nil) {
					t.Errorf("%s on %s: %s gives %v (err %v), conformed %s gives %v (err %v)",
						rule, co.Src, srcCond, want, wantErr, conformed[rule], got, gotErr)
				}
			}
		}
	})
}

// TestKeyPropagatesThroughRenamedKey: the key-to-key exception of
// §5.2.2 reads the Eq rule's condition in conformed terms, as it reads
// the key constraints. The library's key `code` is equivalent to the
// shop's key `isbn` and conforms to it, so `O.code = R.isbn` relates
// key to key and both keys propagate.
func TestKeyPropagatesThroughRenamedKey(t *testing.T) {
	lib := tm.MustParseDatabase(`
Database LibA

Class Book
  attributes
    code : string
    title : string
  class constraints
    cc1: key code
end Book
`)
	shop := tm.MustParseDatabase(`
Database ShopB

Class Item
  attributes
    isbn : string
    title : string
  class constraints
    cc1: key isbn
end Item
`)
	is := tm.MustParseIntegration(`
integration LibA imports ShopB

rule r1: Eq(O:Book, R:Item) <= O.code = R.isbn

propeq(Book.code, Item.isbn, id, id, any)
propeq(Book.title, Item.title, id, id, any)
`)
	res, err := Integrate(lib, shop, is, store.New(lib.Schema, lib.Consts), store.New(shop.Schema, shop.Consts), 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, gc := range res.Derivation.Global {
		if gc.Derivation == "key-propagation" {
			got = append(got, gc.String())
		}
	}
	want := []string{"on Book [all, key-propagation]: key isbn", "on Item [all, key-propagation]: key isbn"}
	if !slices.Equal(got, want) {
		t.Errorf("propagated keys = %q, want %q", got, want)
	}
}
