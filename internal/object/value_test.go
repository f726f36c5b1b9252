package object

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindInt: "int", KindReal: "real",
		KindString: "string", KindBool: "bool", KindSet: "set",
		KindTuple: "tuple", KindRef: "ref", Kind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestNumericCrossKindEquality(t *testing.T) {
	if !Int(2).Equal(Real(2.0)) {
		t.Error("Int(2) should equal Real(2.0)")
	}
	if !Real(2.0).Equal(Int(2)) {
		t.Error("Real(2.0) should equal Int(2)")
	}
	if Int(2).Equal(Real(2.5)) {
		t.Error("Int(2) should not equal Real(2.5)")
	}
	if Int(2).Equal(Str("2")) {
		t.Error("Int(2) should not equal Str(\"2\")")
	}
}

func TestValueStrings(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Real(1.5), "1.5"},
		{Real(2), "2.0"},
		{Str("abc"), "'abc'"},
		{Str("o'brien"), "'o''brien'"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Null{}, "null"},
		{Ref{DB: "DB1", OID: 7}, "DB1#7"},
		{Ref{OID: 7}, "#7"},
		{NewSet(Int(20), Int(10), Int(20)), "{10,20}"},
		{NewTuple(map[string]Value{"b": Int(1), "a": Str("x")}), "(a='x',b=1)"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%T.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestSetDedupAndCanonicalOrder(t *testing.T) {
	s := NewSet(Int(20), Int(10), Real(10.0), Int(14))
	if s.Len() != 3 {
		t.Fatalf("set should dedup Int(10)/Real(10.0): got len %d: %v", s.Len(), s)
	}
	elems := s.Elems()
	f0, _ := AsFloat(elems[0])
	f1, _ := AsFloat(elems[1])
	f2, _ := AsFloat(elems[2])
	if !(f0 < f1 && f1 < f2) {
		t.Errorf("set elements not sorted: %v", s)
	}
}

func TestSetOps(t *testing.T) {
	a := NewSet(Int(1), Int(2), Int(3))
	b := NewSet(Int(3), Int(4))
	if got := a.Union(b); got.Len() != 4 {
		t.Errorf("union: %v", got)
	}
	if got := a.Intersect(b); got.Len() != 1 || !got.Contains(Int(3)) {
		t.Errorf("intersect: %v", got)
	}
	if !a.Contains(Real(2.0)) {
		t.Error("contains should respect numeric cross-kind equality")
	}
	if a.Contains(Int(9)) {
		t.Error("contains false positive")
	}
}

func TestTupleFields(t *testing.T) {
	tp := NewTuple(map[string]Value{"name": Str("IEEE"), "loc": Str("NY")})
	if got := tp.Field("name"); !got.Equal(Str("IEEE")) {
		t.Errorf("Field(name) = %v", got)
	}
	if got := tp.Field("missing"); got.Kind() != KindNull {
		t.Errorf("missing field should be null, got %v", got)
	}
	if n := tp.Names(); len(n) != 2 || n[0] != "loc" || n[1] != "name" {
		t.Errorf("Names() = %v", n)
	}
	same := NewTuple(map[string]Value{"loc": Str("NY"), "name": Str("IEEE")})
	if !tp.Equal(same) {
		t.Error("tuples with same fields should be equal")
	}
	diff := NewTuple(map[string]Value{"name": Str("ACM"), "loc": Str("NY")})
	if tp.Equal(diff) {
		t.Error("tuples with different fields should differ")
	}
}

func TestCompare(t *testing.T) {
	lt := []struct{ a, b Value }{
		{Int(1), Int(2)},
		{Int(1), Real(1.5)},
		{Str("a"), Str("b")},
		{Bool(false), Bool(true)},
		{Ref{"A", 1}, Ref{"B", 1}},
		{Ref{"A", 1}, Ref{"A", 2}},
		{Null{}, Int(0)},
		{NewSet(Int(1)), NewSet(Int(1), Int(2))},
		{NewSet(Int(1)), NewSet(Int(2))},
	}
	for _, c := range lt {
		got, ok := Compare(c.a, c.b)
		if !ok || got >= 0 {
			t.Errorf("Compare(%v,%v) = %d,%v; want <0,true", c.a, c.b, got, ok)
		}
		got, ok = Compare(c.b, c.a)
		if !ok || got <= 0 {
			t.Errorf("Compare(%v,%v) = %d,%v; want >0,true", c.b, c.a, got, ok)
		}
	}
	if _, ok := Compare(Int(1), Str("a")); ok {
		t.Error("int and string should be incomparable")
	}
	if c, ok := Compare(Null{}, Null{}); !ok || c != 0 {
		t.Error("null == null")
	}
}

func TestHashEqualValuesHashEqual(t *testing.T) {
	pairs := []struct{ a, b Value }{
		{Int(2), Real(2.0)},
		{NewSet(Int(1), Int(2)), NewSet(Int(2), Int(1))},
		{Str("x"), Str("x")},
		{NewTuple(map[string]Value{"a": Int(1)}), NewTuple(map[string]Value{"a": Real(1)})},
	}
	for _, p := range pairs {
		if Hash(p.a) != Hash(p.b) {
			t.Errorf("Hash(%v) != Hash(%v) but values equal", p.a, p.b)
		}
	}
	if Hash(Int(1)) == Hash(Int(2)) {
		t.Error("distinct ints should (very likely) hash differently")
	}
	if Hash(Str("")) == Hash(Bool(false)) {
		t.Error("kind tag should separate empty string from false")
	}
}

// randValue builds a random scalar value for property tests.
func randValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Int(r.Int63n(2000) - 1000)
	case 1:
		return Real(r.Float64()*2000 - 1000)
	case 2:
		return Str(string(rune('a' + r.Intn(26))))
	case 3:
		return Bool(r.Intn(2) == 0)
	default:
		return Null{}
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randValue(r), randValue(r)
		c1, ok1 := Compare(a, b)
		c2, ok2 := Compare(b, a)
		if ok1 != ok2 {
			// Null is comparable against everything in one direction only
			// if the other side is incomparable kind; tolerate asymmetric ok
			// only when one side is Null.
			_, an := a.(Null)
			_, bn := b.(Null)
			return an || bn
		}
		if !ok1 {
			return true
		}
		return (c1 < 0) == (c2 > 0) && (c1 == 0) == (c2 == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickEqualImpliesHashEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randValue(r), randValue(r)
		if a.Equal(b) {
			return Hash(a) == Hash(b)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickSetUnionCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(6)
		var xs, ys []Value
		for i := 0; i < n; i++ {
			xs = append(xs, randValue(r))
			ys = append(ys, randValue(r))
		}
		a, b := NewSet(xs...), NewSet(ys...)
		return a.Union(b).Equal(b.Union(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAsFloat(t *testing.T) {
	if f, ok := AsFloat(Int(3)); !ok || f != 3 {
		t.Error("AsFloat(Int)")
	}
	if f, ok := AsFloat(Real(2.5)); !ok || f != 2.5 {
		t.Error("AsFloat(Real)")
	}
	if _, ok := AsFloat(Str("x")); ok {
		t.Error("AsFloat(Str) should fail")
	}
	if math.IsNaN(float64(Real(math.NaN()))) != true {
		t.Error("sanity")
	}
}

// TestCompareZeroImpliesHashEqual: every Int/Real pair that Compare
// orders equal hashes equal, signed zeros included — the hash joins,
// equality indexes and key strings built on Hash find exactly the
// matches `=` finds. NaN, which Compare orders equal to every number,
// is not covered.
func TestCompareZeroImpliesHashEqual(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nums := []Value{
		Int(0), Int(1), Int(-1), Int(7), Int(-7),
		Real(0), Real(negZero), Real(1), Real(-1), Real(7), Real(-7), Real(0.5), Real(-0.5),
		NewSet(Real(negZero)), NewSet(Int(0)),
		NewTuple(map[string]Value{"a": Real(negZero)}), NewTuple(map[string]Value{"a": Int(0)}),
	}
	for _, a := range nums {
		for _, b := range nums {
			if c, ok := Compare(a, b); ok && c == 0 && Hash(a) != Hash(b) {
				t.Errorf("Compare(%v, %v) = 0 but their hashes differ", a, b)
			}
			if a.Equal(b) && Hash(a) != Hash(b) {
				t.Errorf("%v equals %v but their hashes differ", a, b)
			}
		}
	}
}
