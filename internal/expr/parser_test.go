package expr

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"interopdb/internal/object"
)

// Every constraint of Figure 1 must parse.
var figure1Constraints = []string{
	"ourprice <= shopprice",
	"publisher in KNOWNPUBLISHERS",
	"key isbn",
	"(sum (collect x for x in self) over ourprice) < MAX",
	"(avg (collect x for x in self) over rating) < 4",
	"rating >= 2",
	"rating <= 3",
	"libprice <= shopprice",
	"publisher.name='IEEE' implies ref?=true",
	"ref?=true implies rating >= 7",
	"publisher.name='ACM' implies rating >= 6",
	"forall p in Publisher exists i in Item | i.publisher = p",
}

func TestParseFigure1(t *testing.T) {
	for _, src := range figure1Constraints {
		n, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if n == nil {
			t.Errorf("Parse(%q) returned nil", src)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	// Parse → print → parse must reach a fixpoint (structural equality).
	for _, src := range figure1Constraints {
		n1 := MustParse(src)
		n2, err := Parse(n1.String())
		if err != nil {
			t.Errorf("reparse of %q (printed %q): %v", src, n1.String(), err)
			continue
		}
		if !Equal(n1, n2) {
			t.Errorf("round trip not stable: %q -> %q -> %q", src, n1, n2)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// implies binds loosest and is right-associative.
	n := MustParse("a = 1 implies b = 2 implies c = 3")
	top, ok := n.(Binary)
	if !ok || top.Op != OpImplies {
		t.Fatalf("top: %v", n)
	}
	if r, ok := top.R.(Binary); !ok || r.Op != OpImplies {
		t.Fatalf("implies should be right-associative: %v", n)
	}
	// and binds tighter than or.
	n = MustParse("a=1 or b=2 and c=3")
	top = n.(Binary)
	if top.Op != OpOr {
		t.Fatalf("or should be top: %v", n)
	}
	if r := top.R.(Binary); r.Op != OpAnd {
		t.Fatalf("and should bind tighter: %v", n)
	}
	// arithmetic precedence.
	n = MustParse("x + 2 * 3 = 7")
	cmp := n.(Binary)
	add := cmp.L.(Binary)
	if add.Op != OpAdd {
		t.Fatalf("expected +: %v", n)
	}
	if mul := add.R.(Binary); mul.Op != OpMul {
		t.Fatalf("* should bind tighter than +: %v", n)
	}
}

func TestParseSetLiteral(t *testing.T) {
	n := MustParse("trav_reimb in {10,20}")
	in, ok := n.(In)
	if !ok {
		t.Fatalf("expected In, got %T", n)
	}
	set, ok := in.Set.(SetLit)
	if !ok || len(set.Elems) != 2 {
		t.Fatalf("set literal: %v", in.Set)
	}
	if _, err := Parse("x in {}"); err != nil {
		t.Errorf("empty set literal should parse: %v", err)
	}
}

func TestParseNotIn(t *testing.T) {
	n := MustParse("x not in {1,2}")
	in, ok := n.(In)
	if !ok || !in.Neg {
		t.Fatalf("expected negated In, got %#v", n)
	}
}

func TestParseQuestionMarkIdent(t *testing.T) {
	n := MustParse("ref? = true")
	b := n.(Binary)
	id, ok := b.L.(Ident)
	if !ok || id.Name != "ref?" {
		t.Fatalf("ref? should lex as one identifier: %#v", b.L)
	}
}

func TestParsePathChain(t *testing.T) {
	n := MustParse("a.b.c = 1")
	b := n.(Binary)
	p1 := b.L.(Path)
	if p1.Attr != "c" {
		t.Fatal("outer path attr")
	}
	p2 := p1.Recv.(Path)
	if p2.Attr != "b" {
		t.Fatal("inner path attr")
	}
	if id := p2.Recv.(Ident); id.Name != "a" {
		t.Fatal("path root")
	}
}

func TestParseAggregate(t *testing.T) {
	n := MustParse("(sum (collect x for x in self) over ourprice) < MAX")
	b := n.(Binary)
	agg, ok := b.L.(Agg)
	if !ok {
		t.Fatalf("expected Agg, got %T", b.L)
	}
	if agg.Fn != "sum" || agg.Over != "ourprice" || agg.Var != "x" {
		t.Fatalf("agg fields: %+v", agg)
	}
	if src := agg.Src.(Ident); src.Name != "self" {
		t.Fatal("agg src")
	}
	// count without over; class-name source.
	n = MustParse("(count (collect y for y in Item)) >= 0")
	agg = n.(Binary).L.(Agg)
	if agg.Fn != "count" || agg.Over != "" || agg.Src.(Ident).Name != "Item" {
		t.Fatalf("count agg: %+v", agg)
	}
}

func TestParseAggregateErrors(t *testing.T) {
	bad := []string{
		"(sum (collect x for y in self) over p) < 1", // var mismatch
		"(sum (collect x for x in self)) < 1",        // sum needs over
		"(count (collect x for x in self) over p) < 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseQuantifier(t *testing.T) {
	n := MustParse("forall p in Publisher exists i in Item | i.publisher = p")
	q, ok := n.(Quant)
	if !ok {
		t.Fatalf("expected Quant, got %T", n)
	}
	if len(q.Binders) != 2 {
		t.Fatalf("binders: %v", q.Binders)
	}
	if !q.Binders[0].All || q.Binders[0].Var != "p" || q.Binders[0].Class != "Publisher" {
		t.Errorf("binder 0: %+v", q.Binders[0])
	}
	if q.Binders[1].All || q.Binders[1].Var != "i" || q.Binders[1].Class != "Item" {
		t.Errorf("binder 1: %+v", q.Binders[1])
	}
}

func TestParseKey(t *testing.T) {
	n := MustParse("key isbn")
	k, ok := n.(Key)
	if !ok || len(k.Attrs) != 1 || k.Attrs[0] != "isbn" {
		t.Fatalf("key: %#v", n)
	}
	n = MustParse("key a, b, c")
	if k := n.(Key); len(k.Attrs) != 3 {
		t.Fatalf("composite key: %#v", k)
	}
}

func TestParseCall(t *testing.T) {
	n := MustParse("contains(title, 'Proceed')")
	c, ok := n.(Call)
	if !ok || c.Fn != "contains" || len(c.Args) != 2 {
		t.Fatalf("call: %#v", n)
	}
	if lit := c.Args[1].(Lit); !lit.Val.Equal(object.Str("Proceed")) {
		t.Fatalf("call arg: %v", c.Args[1])
	}
}

func TestParseStringEscapes(t *testing.T) {
	n := MustParse("name = 'O''Reilly'")
	b := n.(Binary)
	if lit := b.R.(Lit); !lit.Val.Equal(object.Str("O'Reilly")) {
		t.Fatalf("escaped quote: %v", lit.Val)
	}
}

func TestParseComments(t *testing.T) {
	n, err := Parse("rating >= 2 -- minimum quality for refereed work")
	if err != nil {
		t.Fatalf("comment: %v", err)
	}
	if _, ok := n.(Binary); !ok {
		t.Fatal("comment should be skipped")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"rating >=",
		"(rating >= 2",
		"rating >= 2)",
		"x in",
		"forall p in | true",
		"key",
		"'unterminated",
		"x @ y",
		"1 = = 2",
		"not",
		"{1,2",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseRealVsRange(t *testing.T) {
	n := MustParse("x = 1.5")
	if lit := n.(Binary).R.(Lit); !lit.Val.Equal(object.Real(1.5)) {
		t.Fatalf("real literal: %v", lit.Val)
	}
	// negative literal via unary minus
	n = MustParse("x = -3")
	u := n.(Binary).R.(Unary)
	if u.Op != OpNeg {
		t.Fatal("unary minus")
	}
}

func TestOpHelpers(t *testing.T) {
	if OpLt.Flip() != OpGt || OpLe.Flip() != OpGe || OpGt.Flip() != OpLt || OpGe.Flip() != OpLe {
		t.Error("Flip")
	}
	if OpEq.Flip() != OpEq {
		t.Error("Flip(=) should be identity")
	}
	if OpLt.Negate() != OpGe || OpEq.Negate() != OpNe || OpGe.Negate() != OpLt {
		t.Error("Negate")
	}
	if OpAnd.Negate() != OpInvalid {
		t.Error("Negate(and) should be invalid")
	}
	if !OpEq.IsComparison() || OpAdd.IsComparison() {
		t.Error("IsComparison")
	}
	if !OpImplies.IsBool() || OpEq.IsBool() {
		t.Error("IsBool")
	}
	if Op(99).String() != "op(99)" {
		t.Error("unknown op string")
	}
}

func TestEqualAndRewrite(t *testing.T) {
	a := MustParse("rating >= 2 and publisher.name = 'ACM'")
	b := MustParse("rating >= 2 and publisher.name = 'ACM'")
	cN := MustParse("rating >= 3 and publisher.name = 'ACM'")
	if !Equal(a, b) {
		t.Error("identical parses should be Equal")
	}
	if Equal(a, cN) {
		t.Error("different literals should differ")
	}
	// Rewrite rating → score.
	r := Rewrite(a, func(n Node) Node {
		if id, ok := n.(Ident); ok && id.Name == "rating" {
			return Ident{"score"}
		}
		return nil
	})
	if !strings.Contains(r.String(), "score >= 2") {
		t.Errorf("rewrite: %s", r)
	}
	if !strings.Contains(a.String(), "rating >= 2") {
		t.Error("rewrite must not mutate the original")
	}
}

func TestAttrsUsed(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{"publisher.name='ACM' implies rating >= 6", []string{"publisher", "rating"}},
		{"ourprice <= shopprice", []string{"ourprice", "shopprice"}},
		{"key isbn", []string{"isbn"}},
		{"(avg (collect x for x in self) over rating) < 4", []string{}},
		{"forall p in Publisher exists i in Item | i.publisher = p", []string{}},
		{"contains(title, 'X')", []string{"title"}},
		{"self.rating >= 2", []string{"rating"}},
	}
	for _, c := range cases {
		got := AttrsUsed(MustParse(c.src))
		for _, w := range c.want {
			if !got[w] {
				t.Errorf("AttrsUsed(%q) missing %q: got %v", c.src, w, got)
			}
		}
		if len(got) != len(c.want) {
			t.Errorf("AttrsUsed(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestForeignReads(t *testing.T) {
	cases := []struct {
		src            string
		classes, attrs string // sorted, comma-separated
	}{
		{"publisher.name='ACM' implies rating >= 6", "", "name"},
		{"self.publisher.name = 'IEEE'", "", "name"},
		{"self.a.b.c = 1", "", "b,c"},
		{"ourprice <= shopprice", "", ""},
		{"key isbn", "self", "isbn"},
		{"(avg (collect x for x in self) over rating) < 4", "self", "rating"},
		{"(count (collect x for x in Item)) < 4", "Item", ""},
		{"(sum (collect x for x in Item) over price) < 4", "Item", "price"},
		{"forall p in Publisher exists i in Item | i.publisher = p", "Item,Publisher", "publisher"},
		{"forall i in Item | i.publisher.name != 'X'", "Item", "name,publisher"},
		{"KNOWN.name = 'x'", "", "name"},
	}
	join := func(m map[string]bool) string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	for _, c := range cases {
		classes, attrs := ForeignReads(MustParse(c.src))
		if got := join(classes); got != c.classes {
			t.Errorf("ForeignReads(%q) classes = %q, want %q", c.src, got, c.classes)
		}
		if got := join(attrs); got != c.attrs {
			t.Errorf("ForeignReads(%q) attrs = %q, want %q", c.src, got, c.attrs)
		}
	}
}

func TestPathString(t *testing.T) {
	n := MustParse("publisher.name = 'x'").(Binary).L
	if s, ok := PathString(n); !ok || s != "publisher.name" {
		t.Errorf("PathString = %q,%v", s, ok)
	}
	n = MustParse("self.rating >= 1").(Binary).L
	if s, ok := PathString(n); !ok || s != "rating" {
		t.Errorf("PathString(self.rating) = %q,%v", s, ok)
	}
	if _, ok := PathString(Lit{object.Int(1)}); ok {
		t.Error("literal has no path")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("((")
}

func TestQuickPrintParseFixpoint(t *testing.T) {
	// Generate small random formulas, print them, reparse, compare.
	type gen struct{ depth int }
	var build func(g *gen, r int) Node
	build = func(g *gen, r int) Node {
		if g.depth <= 0 || r%7 == 0 {
			switch r % 3 {
			case 0:
				return Binary{Op: OpGe, L: Ident{"rating"}, R: Lit{object.Int(int64(r % 10))}}
			case 1:
				return Binary{Op: OpEq, L: Ident{"name"}, R: Lit{object.Str("v")}}
			default:
				return In{X: Ident{"x"}, Set: SetLit{Elems: []Node{Lit{object.Int(1)}, Lit{object.Int(2)}}}}
			}
		}
		g.depth--
		l := build(g, r/2)
		rr := build(g, r/3)
		ops := []Op{OpAnd, OpOr, OpImplies}
		return Binary{Op: ops[r%3], L: l, R: rr}
	}
	f := func(seed uint8, d uint8) bool {
		g := &gen{depth: int(d%4) + 1}
		n := build(g, int(seed)+1)
		re, err := Parse(n.String())
		if err != nil {
			t.Logf("printed %q failed: %v", n.String(), err)
			return false
		}
		return Equal(n, re)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
