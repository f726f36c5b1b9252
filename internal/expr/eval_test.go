package expr

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"interopdb/internal/object"
)

// bookEnv builds an evaluation environment around a single Proceedings
// object and a publisher to dereference.
func bookEnv() *Env {
	pub := MapObject{"name": object.Str("IEEE"), "location": object.Str("NY")}
	self := MapObject{
		"title":     object.Str("Proceedings of VLDB"),
		"isbn":      object.Str("90-001"),
		"publisher": object.Ref{DB: "Bookseller", OID: 1},
		"shopprice": object.Real(80),
		"libprice":  object.Real(75),
		"ref?":      object.Bool(true),
		"rating":    object.Int(8),
		"subjects":  object.NewSet(object.Str("db"), object.Str("systems")),
	}
	attrs := Attrs{}
	for k := range self {
		attrs[k] = true
	}
	return &Env{
		Self:     self,
		Declared: attrs,
		Consts:   map[string]object.Value{"MAX": object.Real(10000), "KNOWNPUBLISHERS": object.NewSet(object.Str("IEEE"), object.Str("ACM"))},
		Deref: func(r object.Ref) (Object, bool) {
			if r.DB == "Bookseller" && r.OID == 1 {
				return pub, true
			}
			return nil, false
		},
	}
}

func evalB(t *testing.T, env *Env, src string) bool {
	t.Helper()
	b, err := env.EvalBool(MustParse(src))
	if err != nil {
		t.Fatalf("EvalBool(%q): %v", src, err)
	}
	return b
}

func TestEvalComparisons(t *testing.T) {
	env := bookEnv()
	trues := []string{
		"libprice <= shopprice",
		"rating >= 7",
		"rating = 8",
		"rating != 9",
		"title = 'Proceedings of VLDB'",
		"ref? = true",
		"publisher.name = 'IEEE'",
		"publisher.location = 'NY'",
		"shopprice - libprice = 5",
		"rating * 2 = 16",
		"rating / 2 = 4",
		"-rating = -8",
		"rating + 1 > 8.5",
	}
	for _, src := range trues {
		if !evalB(t, env, src) {
			t.Errorf("%q should be true", src)
		}
	}
	falses := []string{
		"libprice > shopprice",
		"rating < 7",
		"publisher.name = 'ACM'",
	}
	for _, src := range falses {
		if evalB(t, env, src) {
			t.Errorf("%q should be false", src)
		}
	}
}

func TestEvalBoolConnectives(t *testing.T) {
	env := bookEnv()
	cases := map[string]bool{
		"rating >= 7 and ref? = true":                  true,
		"rating >= 7 and ref? = false":                 false,
		"rating < 7 or ref? = true":                    true,
		"rating < 7 or ref? = false":                   false,
		"publisher.name='IEEE' implies ref?=true":      true,
		"publisher.name='ACM' implies rating >= 100":   true, // vacuous
		"publisher.name='IEEE' implies rating >= 100":  false,
		"not (rating < 7)":                             true,
		"not rating >= 7":                              false,
		"rating >= 7 and not (publisher.name = 'ACM')": true,
	}
	for src, want := range cases {
		if got := evalB(t, env, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvalMembership(t *testing.T) {
	env := bookEnv()
	cases := map[string]bool{
		"rating in {7,8,9}":                  true,
		"rating in {1,2}":                    false,
		"rating not in {1,2}":                true,
		"publisher.name in KNOWNPUBLISHERS":  true,
		"'philosophy' in subjects":           false,
		"'db' in subjects":                   true,
		"title in {'Proceedings of VLDB'}":   true,
		"rating in {7.5, 8.0}":               true, // numeric cross-kind
		"publisher.name in {'IEEE', 'ACM '}": true,
	}
	for src, want := range cases {
		if got := evalB(t, env, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvalCalls(t *testing.T) {
	env := bookEnv()
	cases := map[string]bool{
		"contains(title, 'Proceed')":  true,
		"contains(title, 'Monogr')":   false,
		"length(title) > 5":           true,
		"length(subjects) = 2":        true,
		"abs(libprice - shopprice)=5": true,
	}
	for src, want := range cases {
		if got := evalB(t, env, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvalNullSemantics(t *testing.T) {
	env := bookEnv()
	self := env.Self.(MapObject)
	delete(self, "rating")
	// Comparisons with missing attributes are false; their negation true.
	if evalB(t, env, "rating >= 7") {
		t.Error("comparison with null should be false")
	}
	if !evalB(t, env, "not (rating >= 7)") {
		t.Error("negated null comparison should be true")
	}
	if evalB(t, env, "rating = 8") {
		t.Error("null = 8 is false")
	}
	if !evalB(t, env, "rating != 8") {
		t.Error("null != 8 is true")
	}
	if evalB(t, env, "rating in {7,8}") {
		t.Error("null in set is false")
	}
	// Arithmetic with null propagates, then compares false.
	if evalB(t, env, "rating + 1 = 9") {
		t.Error("null arithmetic should compare false")
	}
	// Unknown identifiers are errors, not nulls.
	if _, err := env.EvalBool(MustParse("nosuch >= 1")); err == nil {
		t.Error("unknown identifier should error")
	}
}

func TestEvalDanglingRef(t *testing.T) {
	env := bookEnv()
	self := env.Self.(MapObject)
	self["publisher"] = object.Ref{DB: "Bookseller", OID: 999}
	if evalB(t, env, "publisher.name = 'IEEE'") {
		t.Error("dangling ref attribute should be null → comparison false")
	}
	if !evalB(t, env, "publisher.name='IEEE' implies ref?=true") {
		t.Error("implication with null antecedent holds vacuously")
	}
}

func TestEvalErrors(t *testing.T) {
	env := bookEnv()
	bad := []string{
		"title + 1 = 2",          // string arithmetic
		"rating / 0 = 1",         // division by zero
		"title < 5",              // incomparable ordering
		"rating in rating",       // in over non-set
		"contains(rating, 'x')",  // non-string contains
		"length(rating) = 1",     // bad length arg
		"abs(title) = 1",         // bad abs arg
		"nosuchfn(1) = 1",        // unknown function
		"rating and ref? = true", // non-bool operand
		"title.x = 1",            // attribute of a string
	}
	for _, src := range bad {
		if _, err := env.EvalBool(MustParse(src)); err == nil {
			t.Errorf("%q should fail to evaluate", src)
		}
	}
}

func extEnv() *Env {
	mk := func(price float64, rating int64) MapObject {
		return MapObject{"ourprice": object.Real(price), "rating": object.Int(rating)}
	}
	ext := []Object{mk(10, 3), mk(20, 4), mk(30, 5)}
	pubs := []Object{
		MapObject{"name": object.Str("IEEE")},
		MapObject{"name": object.Str("ACM")},
	}
	items := []Object{
		MapObject{"publisher": object.Str("IEEE")},
		MapObject{"publisher": object.Str("ACM")},
	}
	return &Env{
		SelfExt: ext,
		Consts:  map[string]object.Value{"MAX": object.Real(100)},
		Ext: func(class string) []Object {
			switch class {
			case "Publisher":
				return pubs
			case "Item":
				return items
			default:
				return nil
			}
		},
	}
}

func TestEvalAggregates(t *testing.T) {
	env := extEnv()
	cases := map[string]bool{
		"(sum (collect x for x in self) over ourprice) < MAX":  true,
		"(sum (collect x for x in self) over ourprice) = 60":   true,
		"(avg (collect x for x in self) over rating) < 4.5":    true,
		"(avg (collect x for x in self) over rating) = 4":      true,
		"(min (collect x for x in self) over ourprice) = 10":   true,
		"(max (collect x for x in self) over ourprice) = 30":   true,
		"(count (collect x for x in self)) = 3":                true,
		"(count (collect p for p in Publisher)) = 2":           true,
		"(sum (collect x for x in self) over ourprice) >= 100": false,
	}
	for src, want := range cases {
		if got := evalB(t, env, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvalAggregateEmptyAndNulls(t *testing.T) {
	env := &Env{SelfExt: nil}
	// sum over empty = 0
	v, err := env.Eval(MustParse("(sum (collect x for x in self) over p)"))
	if err != nil || !v.Equal(object.Real(0)) {
		t.Errorf("sum over empty = %v, %v", v, err)
	}
	// avg over empty = null
	v, err = env.Eval(MustParse("(avg (collect x for x in self) over p)"))
	if err != nil || v.Kind() != object.KindNull {
		t.Errorf("avg over empty = %v, %v", v, err)
	}
	// nulls are skipped
	env.SelfExt = []Object{
		MapObject{"p": object.Real(4)},
		MapObject{},
		MapObject{"p": object.Null{}},
	}
	v, err = env.Eval(MustParse("(avg (collect x for x in self) over p)"))
	if err != nil || !v.Equal(object.Real(4)) {
		t.Errorf("avg skipping nulls = %v, %v", v, err)
	}
}

func TestEvalQuantifiers(t *testing.T) {
	env := extEnv()
	cases := map[string]bool{
		"forall p in Publisher | p.name != ''":                            true,
		"forall p in Publisher | p.name = 'IEEE'":                         false,
		"exists p in Publisher | p.name = 'ACM'":                          true,
		"exists p in Publisher | p.name = 'Elsevier'":                     false,
		"forall p in Publisher exists i in Item | i.publisher = p.name":   true,
		"exists p in Publisher forall i in Item | i.publisher = p.name":   false,
		"forall p in NoSuchClass | false":                                 true, // empty extension
		"exists p in NoSuchClass | true":                                  false,
		"forall p in Publisher | exists i in Item | i.publisher = p.name": true, // nested quant body
	}
	for src, want := range cases {
		if got := evalB(t, env, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvalQuantifierRestoresBindings(t *testing.T) {
	env := extEnv()
	outer := MapObject{"name": object.Str("OUTER")}
	env.Vars = map[string]Object{"p": outer}
	if !evalB(t, env, "exists p in Publisher | p.name = 'ACM'") {
		t.Fatal("inner binding should win")
	}
	if got := env.Vars["p"]; got == nil {
		t.Fatal("binding removed")
	} else if v, _ := got.Get("name"); !v.Equal(object.Str("OUTER")) {
		t.Error("outer binding should be restored after quantifier")
	}
}

func TestEvalKey(t *testing.T) {
	ext := []Object{
		MapObject{"isbn": object.Str("a"), "v": object.Int(1)},
		MapObject{"isbn": object.Str("b"), "v": object.Int(1)},
	}
	ok, err := EvalKey(ext, []string{"isbn"})
	if err != nil || !ok {
		t.Fatalf("unique key: %v %v", ok, err)
	}
	ext = append(ext, MapObject{"isbn": object.Str("a")})
	ok, _ = EvalKey(ext, []string{"isbn"})
	if ok {
		t.Error("duplicate key should fail")
	}
	// Composite key: (isbn,v) still unique.
	ext2 := []Object{
		MapObject{"isbn": object.Str("a"), "v": object.Int(1)},
		MapObject{"isbn": object.Str("a"), "v": object.Int(2)},
	}
	if ok, _ := EvalKey(ext2, []string{"isbn", "v"}); !ok {
		t.Error("composite key should pass")
	}
	// Null key parts are skipped.
	ext3 := []Object{
		MapObject{"isbn": object.Null{}},
		MapObject{},
	}
	if ok, _ := EvalKey(ext3, []string{"isbn"}); !ok {
		t.Error("null keys do not collide")
	}
	if _, err := EvalKey(ext3, nil); err == nil {
		t.Error("empty key attribute list should error")
	}
	// Key node via env.
	env := &Env{SelfExt: ext2}
	if b, err := env.EvalBool(MustParse("key isbn, v")); err != nil || !b {
		t.Errorf("key node eval: %v %v", b, err)
	}
}

// TestKeyStringMatchesFmt pins KeyString's bytes to the "%016x|" rendering
// it replaced, over generated values of every kind and composite keys of
// one to four parts.
func TestKeyStringMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func() object.Value {
		switch rng.Intn(7) {
		case 0:
			return object.Int(rng.Int63() - rng.Int63())
		case 1:
			return object.Real(rng.NormFloat64() * 1e6)
		case 2:
			return object.Str(fmt.Sprintf("k-%06d", rng.Intn(1e6)))
		case 3:
			return object.Bool(rng.Intn(2) == 0)
		case 4:
			return object.Ref{DB: "Bookseller", OID: object.OID(rng.Intn(1e4))}
		case 5:
			return object.NewSet(object.Int(int64(rng.Intn(9))), object.Str("x"))
		default:
			return object.Str("")
		}
	}
	names := []string{"a", "b", "c", "d"}
	for i := 0; i < 2000; i++ {
		attrs := names[:1+rng.Intn(len(names))]
		o := MapObject{}
		var want strings.Builder
		for _, a := range attrs {
			v := gen()
			o[a] = v
			fmt.Fprintf(&want, "%016x|", object.Hash(v))
		}
		got, ok := KeyString(o, attrs)
		if !ok || got != want.String() {
			t.Fatalf("KeyString(%v) = %q, %v; want %q", o, got, ok, want.String())
		}
	}
	if _, ok := KeyString(MapObject{"a": object.Int(1), "b": object.Null{}}, []string{"a", "b"}); ok {
		t.Error("a null key part must not encode")
	}
}

func TestKeyStringAllocs(t *testing.T) {
	o := MapObject{"isbn": object.Str("k-000042"), "v": object.Int(7)}
	attrs := []string{"isbn", "v"}
	if n := testing.AllocsPerRun(200, func() { KeyString(o, attrs) }); n > 1 {
		t.Errorf("KeyString allocates %.1f times per call, want at most 1", n)
	}
}

func TestEvalSetUnionPlus(t *testing.T) {
	env := &Env{Self: MapObject{
		"a": object.NewSet(object.Str("x")),
		"b": object.NewSet(object.Str("y")),
	}}
	v, err := env.Eval(MustParse("a + b"))
	if err != nil {
		t.Fatal(err)
	}
	s := v.(object.Set)
	if s.Len() != 2 || !s.Contains(object.Str("x")) || !s.Contains(object.Str("y")) {
		t.Errorf("set union via +: %v", s)
	}
}

func TestEvalSelfMisuse(t *testing.T) {
	env := &Env{}
	if _, err := env.EvalBool(MustParse("self = self")); err == nil {
		t.Error("self without binding should error")
	}
	env2 := bookEnv()
	if _, err := env2.EvalBool(MustParse("self = self")); err == nil ||
		!strings.Contains(err.Error(), "object used where a value") {
		t.Errorf("comparing objects as values should error, got %v", err)
	}
}

func TestEvalTupleFieldNavigation(t *testing.T) {
	// Value-view conformation inlines objects as tuples; paths navigate
	// through them.
	self := MapObject{
		"publisher": object.NewTuple(map[string]object.Value{
			"name":     object.Str("IEEE"),
			"location": object.Str("NY"),
		}),
		"ref?": object.Bool(true),
	}
	env := &Env{Self: self}
	if !evalB(t, env, "publisher.name = 'IEEE'") {
		t.Error("tuple field access")
	}
	if !evalB(t, env, "publisher.name = 'IEEE' implies ref? = true") {
		t.Error("implication through tuple field")
	}
	if evalB(t, env, "publisher.nosuch = 'x'") {
		t.Error("missing tuple field is null")
	}
	// Nested tuples.
	self["outer"] = object.NewTuple(map[string]object.Value{
		"inner": object.NewTuple(map[string]object.Value{"v": object.Int(3)}),
	})
	if !evalB(t, env, "outer.inner.v = 3") {
		t.Error("nested tuple navigation")
	}
}

func TestEvalNegatedMembershipNull(t *testing.T) {
	env := &Env{Self: MapObject{}, Declared: Attrs{"x": true}}
	// null not in S: membership of null is false; negation gives true...
	// but In returns false for null regardless of Neg (unknown value), so
	// both forms are false — the conservative choice.
	if got := evalB(t, env, "x in {1,2}"); got {
		t.Error("null in set must be false")
	}
}

// fragmentEnv builds an environment for the expression-fragment cases: a
// self object with a declared but absent attribute ("missing"), one
// constant set, one scalar constant, a two-object Item extension whose
// first object is self, and a deref table.
func fragmentEnv() *Env {
	pub := MapObject{"name": object.Str("IEEE"), "location": object.Str("NY")}
	self := MapObject{
		"title":     object.Str("Proceedings of VLDB"),
		"rating":    object.Int(8),
		"shopprice": object.Real(80),
		"libprice":  object.Real(78),
		"ref?":      object.Bool(true),
		"publisher": object.Ref{DB: "BS", OID: 1},
		"authors":   object.NewSet(object.Str("A"), object.Str("B")),
	}
	other := MapObject{"rating": object.Int(4), "shopprice": object.Real(30)}
	return &Env{
		Self: self,
		Consts: map[string]object.Value{
			"KNOWNPUBLISHERS": object.NewSet(object.Str("IEEE"), object.Str("ACM")),
			"MAX":             object.Real(100),
		},
		Declared: Attrs{
			"title": true, "rating": true, "shopprice": true, "libprice": true,
			"ref?": true, "publisher": true, "authors": true, "missing": true,
		},
		Ext: func(class string) []Object {
			if class == "Item" {
				return []Object{self, other}
			}
			return nil
		},
		SelfExt: []Object{self, other},
		Deref: func(r object.Ref) (Object, bool) {
			if r.DB == "BS" && r.OID == 1 {
				return pub, true
			}
			return nil, false
		},
	}
}

// TestEvalFragmentCases pins values and error texts across the fragment
// the other tests leave out: null equality and negation, set literals of
// non-literal elements, aggregates over a class, paths through self and
// through a dereference to an absent attribute, bound variables that
// shadow an attribute or a name self lacks, and the exact text of each
// error.
func TestEvalFragmentCases(t *testing.T) {
	shadow := map[string]Object{
		"location": MapObject{"rating": object.Int(3)},
		"rating":   MapObject{"rating": object.Int(5)},
	}
	cases := []struct {
		src    string
		vars   map[string]Object
		want   string // the value's rendering, or the error text
		errors bool
	}{
		{src: "shopprice * 2 > MAX", want: "true"},
		{src: "shopprice / 2 <= libprice", want: "true"},
		{src: "missing = missing", want: "true"},
		{src: "not missing", want: "true"},
		{src: "missing", want: "null"},
		{src: "rating in {shopprice, 8}", want: "true"},
		{src: "(avg (collect x for x in Item) over rating) >= 6", want: "true"},
		{src: "(count (collect x for x in Item)) = 2", want: "true"},
		{src: "exists i in Item | i.rating >= 8 and i.libprice = 78", want: "true"},
		{src: "publisher.location = 'NY' and publisher.missing = missing", want: "true"},
		{src: "self.rating + self.libprice", want: "86.0"},
		{src: "self.missing = missing", want: "true"},
		{src: "location.rating = 3", vars: shadow, want: "true"},
		{src: "rating.rating = 5", vars: shadow, want: "true"},
		{src: "rating >= 7", vars: shadow, errors: true, want: "eval error: object used where a value is required: rating"},
		{src: "location = 'NY'", errors: true, want: `eval error: unknown identifier "location"`},
		{src: "title + 1 = 2", errors: true, want: "eval error: arithmetic on non-numeric values 'Proceedings of VLDB', 1"},
		{src: "unknownname = 1", errors: true, want: `eval error: unknown identifier "unknownname"`},
		{src: "title < 5", errors: true, want: "eval error: cannot order 'Proceedings of VLDB' and 5"},
		{src: "unknownfn(rating)", errors: true, want: `eval error: unknown function "unknownfn"`},
		{src: "rating in shopprice", errors: true, want: "eval error: right side of in is not a set: 80.0"},
		{src: "not shopprice", errors: true, want: "eval error: non-boolean value 80.0 in boolean context"},
		{src: "title.x = 1", errors: true, want: `eval error: cannot access attribute "x" of 'Proceedings of VLDB' in title.x`},
	}
	for _, c := range cases {
		env := fragmentEnv()
		env.Vars = c.vars
		v, err := env.Eval(MustParse(c.src))
		switch {
		case c.errors && (err == nil || err.Error() != c.want):
			t.Errorf("%q: got %v, %v; want the error %q", c.src, v, err, c.want)
		case !c.errors && (err != nil || v.String() != c.want):
			t.Errorf("%q: got %v, %v; want %s", c.src, v, err, c.want)
		}
	}
}

// TestEvalIntArithmeticExact pins Int + - * Int to int64: exact past
// 2^53, where float64 rounds, and an error past the int64 range, where
// it would wrap.
func TestEvalIntArithmeticExact(t *testing.T) {
	const p53 = int64(1) << 53
	self := MapObject{
		"a":   object.Int(p53 + 1),
		"big": object.Int(1 << 62),
		"max": object.Int(math.MaxInt64),
		"min": object.Int(math.MinInt64),
	}
	env := &Env{Self: self}
	exact := map[string]object.Value{
		"a + 0":         object.Int(p53 + 1),
		"a - 1":         object.Int(p53),
		"a * 1":         object.Int(p53 + 1),
		"a + a":         object.Int(2*p53 + 2),
		"max - 1 + 1":   object.Int(math.MaxInt64),
		"min + 1 - 1":   object.Int(math.MinInt64),
		"big - 1 + big": object.Int(math.MaxInt64),
		"-max - 1":      object.Int(math.MinInt64),
		"min * 1":       object.Int(math.MinInt64),
		"a + 0.5":       object.Real(float64(p53+1) + 0.5),
		"a / 1":         object.Real(float64(p53 + 1)),
	}
	for src, want := range exact {
		v, err := env.Eval(MustParse(src))
		if err != nil || v.Kind() != want.Kind() || !v.Equal(want) {
			t.Errorf("%s = %v, %v; want %v", src, v, err, want)
		}
	}
	if !evalB(t, env, "a + 0 != a - 1") {
		t.Error("2^53+1 and 2^53 compare equal")
	}
	overflow := []string{
		"big * 4", "max + 1", "min - 1", "1 - min", "min * -1", "-1 * min",
		"big * big", "-min", "abs(min)", "min * 2",
	}
	for _, src := range overflow {
		if v, err := env.Eval(MustParse(src)); err == nil || !strings.Contains(err.Error(), "integer overflow") {
			t.Errorf("%s = %v, %v; want an integer overflow error", src, v, err)
		}
	}
}

// TestEvalPathReadAllocs: a path read boxes nothing — the receiver's
// value and the dereferenced object are read in place, and the path
// itself reaches an interface only in an error's text.
func TestEvalPathReadAllocs(t *testing.T) {
	env := bookEnv()
	for _, src := range []string{"publisher.name = 'IEEE'", "publisher.name = 'ACM'", "rating >= 6 and shopprice < 100"} {
		n := MustParse(src)
		if got := testing.AllocsPerRun(100, func() { env.EvalBool(n) }); got != 0 {
			t.Errorf("%q allocates %.1f objects per evaluation, want 0", src, got)
		}
	}
}

// TestEvalCallAllocs: a builtin call evaluates its arguments into a
// buffer on the stack, so a contains(...) condition over a bound object
// — the shape of a rule condition in entity resolution — allocates
// nothing.
func TestEvalCallAllocs(t *testing.T) {
	env := bookEnv()
	env.Vars = map[string]Object{"o": env.Self}
	for _, src := range []string{"contains(o.title, 'VLDB')", "contains(o.title, 'SIGMOD')", "length(o.isbn) = 6"} {
		n := MustParse(src)
		if ok, err := env.EvalBool(n); err != nil {
			t.Fatalf("%s: %v", src, err)
		} else if ok == strings.Contains(src, "SIGMOD") {
			t.Errorf("%s = %v", src, ok)
		}
		if got := testing.AllocsPerRun(100, func() { env.EvalBool(n) }); got != 0 {
			t.Errorf("%q allocates %.1f objects per evaluation, want 0", src, got)
		}
	}
	// Past the buffer the arguments spill, and the call is refused.
	if _, err := env.Eval(MustParse("contains(o.title, 'a', 'b')")); err == nil || !strings.Contains(err.Error(), "takes 2 arguments") {
		t.Errorf("contains with 3 arguments: %v, want an arity error", err)
	}
}

// kindDecl is a per-object Declarer: each row names its class in a
// "kind" attribute, and the class's declarations answer for it — the
// shape of the snapshot's rule, where the declaring classes are the
// object's own.
type kindDecl map[string]Attrs

func (d kindDecl) Declares(self Object, attr string) bool {
	k, _ := self.Get("kind")
	s, _ := k.(object.Str)
	return d[string(s)][attr]
}

// TestEnvReusableAcrossRows: one Env, many self objects — the pattern
// the query engine uses: the Env is built once and only Self is rebound
// per row. Every row's outcome must equal its expected one and the
// outcome over a fresh Env, including declared-but-absent attributes
// (null), names the row's class does not declare (an unknown
// identifier), and quantifiers and aggregates, which bind Vars on the
// reused Env and must leave it as they found it.
func TestEnvReusableAcrossRows(t *testing.T) {
	decl := kindDecl{
		"Proc": {"kind": true, "rating": true, "shopprice": true},
		"Book": {"kind": true, "shopprice": true},
	}
	rows := []MapObject{
		{"kind": object.Str("Proc"), "rating": object.Int(8), "shopprice": object.Real(80)},
		{"kind": object.Str("Proc"), "rating": object.Int(4), "shopprice": object.Real(30)},
		{"kind": object.Str("Proc"), "rating": object.Int(9), "shopprice": object.Real(120)},
		{"kind": object.Str("Proc"), "shopprice": object.Real(50)}, // declared, absent: null
		{"kind": object.Str("Book"), "shopprice": object.Real(20)}, // rating undeclared: error
	}
	ext := func(class string) []Object {
		if class != "Item" {
			return nil
		}
		out := make([]Object, len(rows))
		for i, r := range rows {
			out[i] = r
		}
		return out
	}
	// E: the undeclared name's error.
	const E = `eval error: unknown identifier "rating"`
	cases := []struct {
		src  string
		want []string // per row: "true", "false" or the error text
	}{
		{"rating >= 6 and shopprice < 100", []string{"true", "false", "false", "false", E}},
		{"shopprice < 60 or rating >= 8", []string{"true", "true", "true", "true", "true"}},
		{"rating = rating", []string{"true", "true", "true", "true", E}},
		{"exists i in Item | i.shopprice > shopprice", []string{"true", "true", "false", "true", "true"}},
		{"forall i in Item | i.shopprice >= 20 and rating >= 0", []string{"true", "true", "true", "false", E}},
		{"(avg (collect x for x in Item) over shopprice) > shopprice", []string{"false", "true", "false", "true", "true"}},
	}
	outcome := func(b bool, err error) string {
		if err != nil {
			return err.Error()
		}
		return fmt.Sprint(b)
	}
	env := &Env{Declared: decl, Ext: ext}
	for _, c := range cases {
		n := MustParse(c.src)
		for i, row := range rows {
			env.Self = row
			got := outcome(env.EvalBool(n))
			fresh := outcome((&Env{Self: row, Declared: decl, Ext: ext}).EvalBool(n))
			if got != c.want[i] || fresh != c.want[i] {
				t.Errorf("%q row %d: reused Env %s, fresh Env %s, want %s", c.src, i, got, fresh, c.want[i])
			}
			if len(env.Vars) != 0 {
				t.Errorf("%q row %d: evaluation left bindings %v on the reused Env", c.src, i, env.Vars)
			}
		}
	}
}
