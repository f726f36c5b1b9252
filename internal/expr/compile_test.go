package expr

import (
	"testing"

	"interopdb/internal/object"
)

// compileEnv builds an environment matching the evaluator tests: a self
// object, one constant set, one scalar constant, a two-class extension
// provider and a deref table.
func compileEnv() *Env {
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

// TestCompileMatchesInterpreter pins the compiled closure chain to the
// tree-walking interpreter over the full expression fragment: values,
// truth values and error presence/messages must all agree.
func TestCompileMatchesInterpreter(t *testing.T) {
	srcs := []string{
		// Comparisons, arithmetic, connectives.
		"rating >= 7",
		"rating < 7",
		"shopprice - libprice = 2",
		"shopprice * 2 > MAX",
		"shopprice / 2 <= libprice",
		"rating >= 7 and shopprice <= MAX",
		"rating >= 9 or shopprice <= MAX",
		"publisher.name = 'IEEE' implies ref? = true",
		"not (rating < 7)",
		"-rating <= 0",
		// Null handling: declared-but-absent attribute.
		"missing = 5",
		"missing = missing",
		"missing != 5",
		"missing + 1 = 2",
		"not missing",
		// Paths, refs, sets, builtins.
		"publisher.name = 'IEEE'",
		"publisher.name in KNOWNPUBLISHERS",
		"'A' in authors",
		"'Z' not in authors",
		"rating in {7,8,9}",
		"rating in {shopprice, 8}",
		"contains(title, 'VLDB')",
		"length(title) > 3",
		"length(authors) = 2",
		"abs(libprice - shopprice) = 2",
		// Aggregates and quantifiers fall back to the interpreter.
		"(sum (collect x for x in self) over shopprice) < 200",
		"(avg (collect x for x in Item) over rating) >= 6",
		"(count (collect x for x in Item)) = 2",
		"forall i in Item | i.rating >= 4",
		"exists i in Item | i.rating >= 8",
		// Errors must match too.
		"title + 1 = 2",
		"unknownname = 1",
		"title < 5",
		"unknownfn(rating)",
		"rating in shopprice",
		"not shopprice",
	}
	for _, src := range srcs {
		n := MustParse(src)
		prog := Compile(n)
		env := compileEnv()
		iv, ierr := env.Eval(n)
		cv, cerr := prog.Eval(compileEnv())
		if (ierr == nil) != (cerr == nil) {
			t.Errorf("%q: interpreter err=%v, compiled err=%v", src, ierr, cerr)
			continue
		}
		if ierr != nil {
			if ierr.Error() != cerr.Error() {
				t.Errorf("%q: error mismatch: %q vs %q", src, ierr, cerr)
			}
			continue
		}
		if !iv.Equal(cv) || iv.String() != cv.String() {
			t.Errorf("%q: interpreter=%s compiled=%s", src, iv, cv)
		}
		ib, ierr := env.EvalBool(n)
		cb, cerr := prog.EvalBool(compileEnv())
		if (ierr == nil) != (cerr == nil) || ib != cb {
			t.Errorf("%q: EvalBool mismatch: (%v,%v) vs (%v,%v)", src, ib, ierr, cb, cerr)
		}
	}
}

// slotDict is a test attribute dictionary: the names in slot order.
type slotDict []string

func (d slotDict) Slot(name string) (int, bool) {
	for i, n := range d {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// slotObj is a SlotObject built on a slotDict: its values by slot, nil
// where it holds nothing.
type slotObj struct {
	d    slotDict
	vals []object.Value
}

func newSlotObj(d slotDict, m MapObject) *slotObj {
	o := &slotObj{d: d, vals: make([]object.Value, len(d))}
	for k, v := range m {
		s, ok := d.Slot(k)
		if !ok {
			panic("slotObj: " + k + " is not in the dictionary")
		}
		o.vals[s] = v
	}
	return o
}

func (o *slotObj) Get(name string) (object.Value, bool) {
	if s, ok := o.d.Slot(name); ok {
		return o.At(s)
	}
	return nil, false
}

func (o *slotObj) At(slot int) (object.Value, bool) {
	if slot >= len(o.vals) {
		return nil, false
	}
	return o.vals[slot], o.vals[slot] != nil
}

// TestCompileSlotsMatchesInterpreter runs TestCompileMatchesInterpreter's
// expressions compiled against dictionaries of one lineage over slotted
// objects built on another copy of it: a program whose dictionary lacks
// a name the objects hold (that read goes by name), one whose dictionary
// has a slot past every object's values (an absent, declared attribute:
// null), and the same programs over unslotted objects and with a bound
// variable shadowing an attribute. Values, truth values and errors must
// equal the interpreter's.
func TestCompileSlotsMatchesInterpreter(t *testing.T) {
	lineage := slotDict{"title", "rating", "shopprice", "ref?", "publisher", "authors", "name", "location", "libprice", "missing"}
	objDict := lineage[:9] // objects hold libprice; "missing" was added later
	slotted := func(env *Env) *Env {
		env.Self = newSlotObj(objDict, env.Self.(MapObject))
		for i, o := range env.SelfExt {
			env.SelfExt[i] = newSlotObj(objDict, o.(MapObject))
		}
		deref, ext := env.Deref, env.Ext
		env.Deref = func(r object.Ref) (Object, bool) {
			o, ok := deref(r)
			if !ok {
				return nil, false
			}
			return newSlotObj(objDict, o.(MapObject)), true
		}
		self := env.Self
		env.Ext = func(class string) []Object {
			out := ext(class)
			for i, o := range out {
				if i == 0 {
					out[i] = self
				} else {
					out[i] = newSlotObj(objDict, o.(MapObject))
				}
			}
			return out
		}
		return env
	}
	shadowed := func(env *Env) *Env {
		env.Vars = map[string]Object{
			"location": MapObject{"rating": object.Int(3)},
			"rating":   MapObject{"rating": object.Int(5)},
		}
		return env
	}
	srcs := []string{
		"rating >= 7 and libprice < shopprice",
		"shopprice - libprice = 2",
		"missing = 5",
		"missing = missing",
		"not missing",
		"publisher.name = 'IEEE'",
		"publisher.location = 'NY' and publisher.missing = null",
		"self.rating + self.libprice > 80",
		"self.missing = null",
		"location.rating = 3",
		"rating.rating = 5",
		"location = 'NY'",
		"exists i in Item | i.rating >= 8 and i.libprice = 78",
		"(sum (collect x for x in self) over shopprice) < 200",
		"title + 1 = 2",
		"unknownname = 1",
		"not shopprice",
	}
	envs := []struct {
		name string
		mk   func() *Env
	}{
		{"slotted", func() *Env { return slotted(compileEnv()) }},
		{"unslotted", compileEnv},
		{"slotted+shadow", func() *Env { return shadowed(slotted(compileEnv())) }},
		{"unslotted+shadow", func() *Env { return shadowed(compileEnv()) }},
	}
	for _, dict := range []slotDict{lineage[:8], lineage} {
		for _, src := range srcs {
			n := MustParse(src)
			prog := CompileSlots(n, dict)
			for _, e := range envs {
				iv, ierr := e.mk().Eval(n)
				cv, cerr := prog.Eval(e.mk())
				if (ierr == nil) != (cerr == nil) || ierr != nil && ierr.Error() != cerr.Error() {
					t.Errorf("%q over %s, %d-slot dictionary: interpreter err=%v, compiled err=%v", src, e.name, len(dict), ierr, cerr)
					continue
				}
				if ierr == nil && (!iv.Equal(cv) || iv.String() != cv.String()) {
					t.Errorf("%q over %s, %d-slot dictionary: interpreter=%s compiled=%s", src, e.name, len(dict), iv, cv)
				}
			}
		}
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

// TestCompileReusableAcrossRows: one Program and one Env, many self
// objects — the pattern the query engine uses: the Env is built once
// and only Self is rebound per row. Every row's outcome must equal the
// interpreter's over a fresh Env, including declared-but-absent
// attributes (null), names the row's class does not declare (the same
// error), and quantifiers and aggregates, which bind Vars on the reused
// Env and must leave it as they found it.
func TestCompileReusableAcrossRows(t *testing.T) {
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
	fresh := func(row MapObject) *Env {
		return &Env{Self: row, Declared: decl, Ext: ext}
	}
	cases := []struct {
		src  string
		want []bool // nil: compare with the interpreter only
	}{
		{"rating >= 6 and shopprice < 100", []bool{true, false, false, false, false}},
		{"shopprice < 60 or rating >= 8", nil},
		{"rating = rating", nil},
		{"exists i in Item | i.shopprice > shopprice", nil},
		{"forall i in Item | i.shopprice >= 20 and rating >= 0", nil},
		{"(avg (collect x for x in Item) over shopprice) > shopprice", nil},
	}
	env := &Env{Declared: decl, Ext: ext}
	for _, c := range cases {
		n := MustParse(c.src)
		prog := Compile(n)
		for i, row := range rows {
			env.Self = row
			got, err := prog.EvalBool(env)
			want, werr := fresh(row).EvalBool(n)
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Errorf("%q row %d: reused Env err=%v, fresh interpreter err=%v", c.src, i, err, werr)
				continue
			}
			if got != want {
				t.Errorf("%q row %d: reused Env %v, fresh interpreter %v", c.src, i, got, want)
			}
			if c.want != nil && got != c.want[i] {
				t.Errorf("%q row %d: got %v, want %v", c.src, i, got, c.want[i])
			}
			if len(env.Vars) != 0 {
				t.Errorf("%q row %d: evaluation left bindings %v on the reused Env", c.src, i, env.Vars)
			}
		}
	}
	// The undeclared name fails as an unknown identifier, not as null.
	env.Self = rows[4]
	if _, err := Compile(MustParse("rating >= 0")).EvalBool(env); err == nil ||
		err.Error() != `eval error: unknown identifier "rating"` {
		t.Errorf("undeclared attribute: got %v", err)
	}
}

func BenchmarkCompiledVsInterpreted(b *testing.B) {
	n := MustParse("rating >= 6 and shopprice < 100 and publisher.name = 'IEEE'")
	env := compileEnv()
	b.Run("interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := env.EvalBool(n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		prog := Compile(n)
		for i := 0; i < b.N; i++ {
			if _, err := prog.EvalBool(env); err != nil {
				b.Fatal(err)
			}
		}
	})
}
