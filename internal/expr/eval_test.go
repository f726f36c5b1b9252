package expr

import (
	"fmt"
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
