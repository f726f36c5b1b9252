package store

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"interopdb/internal/object"
	"interopdb/internal/tm"
)

// cslibrary builds a CSLibrary store (Figure 1) holding RefereedPubl
// objects with the given ratings and no other publication.
func cslibrary(t testing.TB, ratings ...int64) (*Store, []object.OID) {
	t.Helper()
	spec := tm.Figure1Library()
	s := New(spec.Schema, spec.Consts)
	var oids []object.OID
	for i, r := range ratings {
		oids = append(oids, s.MustInsert("RefereedPubl", map[string]object.Value{
			"title": object.Str(fmt.Sprintf("p%d", i)), "isbn": object.Str(fmt.Sprintf("i%d", i)),
			"publisher": object.Str("ACM"), "shopprice": object.Real(20), "ourprice": object.Real(10),
			"rating": object.Int(r),
		}))
	}
	if vs := s.CheckAll(); len(vs) != 0 {
		t.Fatalf("seed population inconsistent: %v", vs)
	}
	return s, oids
}

// TestDirectDeleteChecksClassAggregates: removing the low rating lifts
// ScientificPubl's average to 4.5, which cc1 forbids. The delete must be
// refused, and the object restored where it was.
func TestDirectDeleteChecksClassAggregates(t *testing.T) {
	s, oids := cslibrary(t, 2, 4, 5)
	err := s.Delete(oids[0])
	var verr *ViolationError
	if !errors.As(err, &verr) || len(verr.Violations) != 1 ||
		verr.Violations[0].Class != "ScientificPubl" || verr.Violations[0].Constraint.Name != "cc1" {
		t.Fatalf("Delete of the rating-2 object = %v, want ScientificPubl.cc1", err)
	}
	if got := extentOIDs(s, "RefereedPubl"); !slices.Equal(got, oids) {
		t.Errorf("refused delete left extent %v, want %v", got, oids)
	}
	if vs := s.CheckAll(); len(vs) != 0 {
		t.Errorf("refused delete left violations: %v", vs)
	}
}

// TestDirectUpdateChecksDereferencingConstraints: Proceedings.oc1 reads
// publisher.name, so renaming a Publisher to IEEE while a non-refereed
// Proceedings refers to it must be refused.
func TestDirectUpdateChecksDereferencingConstraints(t *testing.T) {
	s := newBookseller(t)
	pub := seedPublisher(t, s, "Springer")
	s.MustInsert("Proceedings", map[string]object.Value{
		"title": object.Str("w"), "isbn": object.Str("w1"),
		"publisher": object.Ref{DB: "Bookseller", OID: pub},
		"shopprice": object.Real(30), "libprice": object.Real(25),
		"ref?": object.Bool(false), "rating": object.Int(5),
	})
	err := s.Update(pub, map[string]object.Value{"name": object.Str("IEEE")})
	if err == nil || !strings.Contains(err.Error(), "Proceedings.oc1") {
		t.Fatalf("renaming the publisher to IEEE = %v, want Proceedings.oc1", err)
	}
	if o, _ := s.Get(pub); !o.attrs["name"].Equal(object.Str("Springer")) {
		t.Errorf("refused update left name %v", o.attrs["name"])
	}
	if vs := s.CheckAll(); len(vs) != 0 {
		t.Errorf("refused update left violations: %v", vs)
	}
}

// TestRejectedBatchKeepsExtentOrder: undoing a delete puts the object
// back at its place in the direct extent, for a transaction and for a
// direct delete alike.
func TestRejectedBatchKeepsExtentOrder(t *testing.T) {
	s := newBookseller(t)
	pub := seedPublisher(t, s, "ACM")
	item := func(isbn string) map[string]object.Value {
		return map[string]object.Value{
			"title": object.Str(isbn), "isbn": object.Str(isbn),
			"publisher": object.Ref{DB: "Bookseller", OID: pub},
			"shopprice": object.Real(10), "libprice": object.Real(5),
		}
	}
	s.MustInsert("Item", item("a"))
	s.MustInsert("Item", item("b"))
	before := extentOIDs(s, "Item")

	tx := s.Begin()
	if err := tx.Delete(before[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("Item", item("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("Item", item("a")); err != nil { // duplicates a live key
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil || !strings.Contains(err.Error(), "cc1") {
		t.Fatalf("commit = %v, want a key violation", err)
	}
	if got := extentOIDs(s, "Item"); !slices.Equal(got, before) {
		t.Errorf("rejected transaction left extent %v, want %v", got, before)
	}

	// The seed item is its publisher's only other referrer but one; the
	// last item standing cannot go (db1), and must come back in place.
	if err := s.Delete(before[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(before[2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(before[0]); err == nil || !strings.Contains(err.Error(), "db1") {
		t.Fatalf("deleting the last item = %v, want db1", err)
	}
	if got := extentOIDs(s, "Item"); !slices.Equal(got, before[:1]) {
		t.Errorf("refused delete left extent %v, want %v", got, before[:1])
	}
}

func extentOIDs(s *Store, class string) []object.OID {
	var out []object.OID
	for _, o := range s.DirectExtent(class) {
		out = append(out, o.oid)
	}
	return out
}

// TestCommitWorkIndependentOfExtent counts the constraint evaluations of
// single-op batches on a Bookseller store of 1 000 and of 16 000 objects:
// they must be equal, whatever the extent.
func TestCommitWorkIndependentOfExtent(t *testing.T) {
	work := func(n int) []int {
		s := newBookseller(t)
		pub := seedPublisher(t, s, "ACM")
		ref := object.Ref{DB: "Bookseller", OID: pub}
		s.Enforce = false
		var last object.OID
		for i := 0; s.Count() < n; i++ {
			class, attrs := "Item", map[string]object.Value{
				"title": object.Str("t"), "isbn": object.Str(fmt.Sprintf("k%d", i)), "publisher": ref,
				"shopprice": object.Real(20), "libprice": object.Real(10),
			}
			if i%4 == 0 {
				class, attrs["ref?"], attrs["rating"] = "Proceedings", object.Bool(true), object.Int(8)
			}
			last = s.MustInsert(class, attrs)
		}
		s.Enforce = true
		if vs := s.CheckAll(); len(vs) != 0 {
			t.Fatalf("load inconsistent: %v", vs)
		}
		var counts []int
		run := func(apply func(b *batch) error) {
			b := &batch{s: s}
			if err := apply(b); err != nil {
				t.Fatal(err)
			}
			if err := b.commit(); err != nil {
				t.Fatal(err)
			}
			counts = append(counts, b.checked)
		}
		run(func(b *batch) error {
			s.nextOID++
			return b.insert(s.nextOID-1, "Item", map[string]object.Value{
				"isbn": object.Str("fresh"), "publisher": ref, "shopprice": object.Real(3), "libprice": object.Real(2),
			})
		})
		run(func(b *batch) error {
			s.nextOID++
			return b.insert(s.nextOID-1, "Proceedings", map[string]object.Value{
				"isbn": object.Str("fresh-p"), "publisher": ref, "shopprice": object.Real(3), "libprice": object.Real(2),
				"ref?": object.Bool(true), "rating": object.Int(9),
			})
		})
		run(func(b *batch) error { return b.update(last, map[string]object.Value{"shopprice": object.Real(99)}) })
		run(func(b *batch) error { return b.update(last, map[string]object.Value{"isbn": object.Str("moved")}) })
		run(func(b *batch) error { return b.delete(last) })
		return counts
	}
	small, large := work(1000), work(16000)
	if !slices.Equal(small, large) {
		t.Errorf("constraint evaluations per single-op commit: %v at 1 000 objects, %v at 16 000", small, large)
	}
}

// --- the differential: the commit check against CheckAll ---

// commitByCheckAll is Tx.Commit with the whole-store pass: the oracle.
func commitByCheckAll(t *Tx) error {
	t.done = true
	b := &batch{s: t.s}
	for _, op := range t.ops {
		var err error
		switch op.kind {
		case opInsert:
			err = b.insert(op.oid, op.class, op.attrs)
		case opUpdate:
			err = b.update(op.oid, op.attrs)
		case opDelete:
			err = b.delete(op.oid)
		}
		if err != nil {
			b.rollback()
			return err
		}
	}
	if vs := t.s.CheckAll(); len(vs) > 0 {
		b.rollback()
		return &ViolationError{vs}
	}
	return nil
}

// directByCheckAll is a direct Insert/Update/Delete with the whole-store
// pass.
func directByCheckAll(s *Store, op txOp) (err error) {
	b := &batch{s: s}
	switch op.kind {
	case opInsert:
		if err = s.validateAttrs(op.class, op.attrs); err != nil {
			return err
		}
		s.nextOID++
		err = b.insert(s.nextOID-1, op.class, op.attrs)
	case opUpdate:
		o, ok := s.objs[op.oid]
		if !ok {
			return fmt.Errorf("store %s: no object %s", s.Name(), op.oid)
		}
		if err = s.validateAttrs(o.class, op.attrs); err != nil {
			return err
		}
		err = b.update(op.oid, op.attrs)
	case opDelete:
		if _, ok := s.objs[op.oid]; !ok {
			return fmt.Errorf("store %s: no object %s", s.Name(), op.oid)
		}
		err = b.delete(op.oid)
	}
	if err != nil {
		return err
	}
	if vs := s.CheckAll(); len(vs) > 0 {
		b.rollback()
		if op.kind == opInsert {
			s.nextOID--
		}
		return &ViolationError{vs}
	}
	return nil
}

func direct(s *Store, op txOp) error {
	switch op.kind {
	case opInsert:
		_, err := s.Insert(op.class, op.attrs)
		return err
	case opUpdate:
		return s.Update(op.oid, op.attrs)
	default:
		return s.Delete(op.oid)
	}
}

// shelves exercises what the paper's schemas do not: a count over an
// extension reached through a subclass, a reference into the same
// hierarchy, and a database constraint whose quantifier body reads an
// attribute nothing else does.
const shelves = `
Database Shelves

Class Box
  attributes
    label : string
    size : int
  class constraints
    cc1: (count (collect x for x in self)) < 6
end Box

Class Crate isa Box
  attributes
    owner : Box
  object constraints
    oc1: owner.size <= size
end Crate

Database constraints
  db1: forall c in Crate exists b in Box | b.label = 'a'
`

// TestSubclassInsertReachesSuperclassAggregate: inserting a Crate grows
// Box's extension, so Box.cc1 must be checked though the batch names no
// attribute it reads.
func TestSubclassInsertReachesSuperclassAggregate(t *testing.T) {
	spec := tm.MustParseDatabase(shelves)
	s := New(spec.Schema, spec.Consts)
	root := s.MustInsert("Box", map[string]object.Value{"label": object.Str("a"), "size": object.Int(1)})
	for i := 0; i < 4; i++ {
		s.MustInsert("Crate", map[string]object.Value{"owner": object.Ref{DB: "Shelves", OID: root}, "size": object.Int(2)})
	}
	_, err := s.Insert("Crate", map[string]object.Value{})
	if err == nil || !strings.Contains(err.Error(), "Box.cc1") {
		t.Fatalf("sixth box = %v, want Box.cc1", err)
	}
}

// diffSchemas are the differential's stores: Figure 1's two databases,
// the introduction's two personnel databases and shelves, each with a
// small consistent population.
var diffSchemas = []func(t testing.TB) *Store{
	func(t testing.TB) *Store {
		spec := tm.Figure1Bookseller()
		s := New(spec.Schema, spec.Consts)
		s.Enforce = false
		var pubs []object.Ref
		for _, n := range []string{"IEEE", "ACM", "Springer"} {
			pubs = append(pubs, object.Ref{DB: "Bookseller", OID: s.MustInsert("Publisher", map[string]object.Value{"name": object.Str(n)})})
		}
		for i, p := range pubs {
			s.MustInsert("Proceedings", map[string]object.Value{
				"isbn": object.Str(fmt.Sprint("p", i)), "publisher": p, "shopprice": object.Real(50), "libprice": object.Real(40),
				"ref?": object.Bool(true), "rating": object.Int(8),
			})
			s.MustInsert("Item", map[string]object.Value{
				"isbn": object.Str(fmt.Sprint("i", i)), "publisher": p, "shopprice": object.Real(30), "libprice": object.Real(20),
			})
		}
		s.MustInsert("Monograph", map[string]object.Value{"isbn": object.Str("m"), "publisher": pubs[1], "shopprice": object.Real(9), "libprice": object.Real(9)})
		s.Enforce = true
		return s
	},
	func(t testing.TB) *Store {
		spec := tm.Figure1Library()
		s := New(spec.Schema, spec.Consts)
		for i, c := range []string{"RefereedPubl", "RefereedPubl", "NonRefereedPubl", "ScientificPubl", "ProfessionalPubl", "Publication"} {
			attrs := map[string]object.Value{
				"isbn": object.Str(fmt.Sprint("l", i)), "publisher": object.Str("ACM"), "shopprice": object.Real(40), "ourprice": object.Real(30),
			}
			if c != "ProfessionalPubl" && c != "Publication" {
				attrs["rating"] = object.Int(int64(2 + i%2))
			}
			s.MustInsert(c, attrs)
		}
		return s
	},
	func(t testing.TB) *Store {
		spec := tm.Personnel1()
		s := New(spec.Schema, spec.Consts)
		s.MustInsert("Employee", map[string]object.Value{"ssn": object.Str("100"), "salary": object.Real(1200), "trav_reimb": object.Int(10)})
		s.MustInsert("Employee", map[string]object.Value{"ssn": object.Str("101"), "salary": object.Real(1400), "trav_reimb": object.Int(20)})
		return s
	},
	func(t testing.TB) *Store {
		spec := tm.Personnel2()
		s := New(spec.Schema, spec.Consts)
		s.MustInsert("Employee", map[string]object.Value{"ssn": object.Str("101"), "salary": object.Real(1600), "trav_reimb": object.Int(24)})
		return s
	},
	func(t testing.TB) *Store {
		spec := tm.MustParseDatabase(shelves)
		s := New(spec.Schema, spec.Consts)
		root := s.MustInsert("Box", map[string]object.Value{"label": object.Str("a"), "size": object.Int(4)})
		s.MustInsert("Crate", map[string]object.Value{"owner": object.Ref{DB: "Shelves", OID: root}, "size": object.Int(6)})
		return s
	},
}

// diffGen draws type-valid (mostly) values from small domains, so keys
// collide, constraints fail and references dangle often enough to matter.
type diffGen struct {
	rng     *rand.Rand
	s       *Store
	deleted []*Obj // objects deleted earlier: candidates for InsertAt
}

func (g *diffGen) value(t object.Type) object.Value {
	if g.rng.Intn(20) == 0 {
		return object.Null{}
	}
	switch t := t.(type) {
	case object.BasicType:
		switch t.K {
		case object.KindString:
			pool := []string{"a", "b", "100", "101", "IEEE", "ACM", "Springer", "Other"}
			return object.Str(pool[g.rng.Intn(len(pool))])
		case object.KindReal:
			if g.rng.Intn(50) == 0 {
				return object.Real(99999)
			}
			return object.Real(float64(g.rng.Intn(60)) * 30)
		case object.KindInt:
			pool := []int64{2, 4, 6, 8, 10, 14, 20, 24}
			return object.Int(pool[g.rng.Intn(len(pool))])
		case object.KindBool:
			return object.Bool(g.rng.Intn(2) == 0)
		}
	case object.RangeType:
		return object.Int(t.Lo + g.rng.Int63n(t.Hi-t.Lo+1))
	case object.SetType:
		return object.NewSet(g.value(t.Elem))
	case object.ClassType:
		ext := g.s.Extent(t.Class)
		if len(ext) == 0 || g.rng.Intn(6) == 0 {
			return object.Ref{DB: g.s.Name(), OID: g.s.nextOID + object.OID(g.rng.Intn(3))}
		}
		return object.Ref{DB: g.s.Name(), OID: ext[g.rng.Intn(len(ext))].oid}
	}
	return object.Null{}
}

// attrs draws attributes for an object of class — all of them mostly
// (an insert) or a few (an update) — half of them copied from a live
// object of the class, so that batches pass often enough to move on.
func (g *diffGen) attrs(class string, all bool) map[string]object.Value {
	out := map[string]object.Value{}
	as := g.s.db.AllAttrs(class)
	ext := g.s.Extent(class)
	for len(out) == 0 {
		for _, a := range as {
			if all && g.rng.Intn(5) != 0 || !all && g.rng.Intn(len(as)) == 0 {
				out[a.Name] = g.value(a.Type.(object.Type))
				if len(ext) > 0 && g.rng.Intn(2) == 0 {
					if v, ok := ext[g.rng.Intn(len(ext))].attrs[a.Name]; ok {
						out[a.Name] = v
					}
				}
			}
		}
	}
	return out
}

// op draws one operation over the current state of g.s.
func (g *diffGen) op() (txOp, bool) {
	live := make([]*Obj, 0, len(g.s.objs))
	for _, cls := range g.s.db.Classes() {
		live = append(live, g.s.byClass[cls.Name]...)
	}
	switch r := g.rng.Intn(20); {
	case r < 9 || len(live) == 0:
		classes := g.s.db.ClassNames()
		c := classes[g.rng.Intn(len(classes))]
		return txOp{kind: opInsert, class: c, attrs: g.attrs(c, true)}, false
	case r < 15:
		o := live[g.rng.Intn(len(live))]
		return txOp{kind: opUpdate, class: o.class, oid: o.oid, attrs: g.attrs(o.class, false)}, false
	case r < 18 || len(g.deleted) == 0:
		o := live[g.rng.Intn(len(live))]
		return txOp{kind: opDelete, class: o.class, oid: o.oid}, false
	default:
		o := g.deleted[g.rng.Intn(len(g.deleted))]
		return txOp{kind: opInsert, class: o.class, oid: o.oid, attrs: o.Attrs()}, true
	}
}

// dump renders a store's observable state: every direct extent in
// order with each object's attributes, the OID cursor, and whether the
// key indexes agree with a fresh rebuild.
func dump(s *Store) string {
	var b strings.Builder
	for _, cls := range s.db.Classes() {
		for _, o := range s.byClass[cls.Name] {
			fmt.Fprintf(&b, "%s\n", o)
		}
	}
	fmt.Fprintf(&b, "next %d\n", s.nextOID)
	for _, k := range s.cons.keys {
		fresh := &keyIndex{attrs: k.attrs, count: map[string]int{}}
		for cls, ks := range s.cons.keyed {
			if slices.Contains(ks, k) {
				for _, o := range s.byClass[cls] {
					fresh.add(o)
				}
			}
		}
		if fmt.Sprint(fresh.count) != fmt.Sprint(k.count) || fresh.dups != k.dups {
			fmt.Fprintf(&b, "key index %v stale: %d dups, rebuilt %d\n", k.attrs, k.dups, fresh.dups)
		}
	}
	return b.String()
}

// withoutCursor drops dump's OID cursor line: a refused transaction
// keeps its reservations burned.
func withoutCursor(d string) string {
	var keep []string
	for _, l := range strings.Split(d, "\n") {
		if !strings.HasPrefix(l, "next ") {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, "\n")
}

// errText renders a verdict for comparison. A violation list is compared
// in full; any other error only as an error, because validateAttrs names
// the first bad attribute in map order.
func errText(err error) string {
	var verr *ViolationError
	switch {
	case err == nil:
		return "<nil>"
	case errors.As(err, &verr):
		return err.Error()
	default:
		return "error"
	}
}

// runDifferential drives two identical stores through the same seeded
// batches — transactions and direct mutations — one committing through
// the commit check, the other through CheckAll, and requires the same
// verdicts, violation lists and states after every batch.
func runDifferential(t *testing.T, seed int64, which, batches int) {
	mk := diffSchemas[which%len(diffSchemas)]
	got, want := mk(t), mk(t)
	if vs := got.CheckAll(); len(vs) != 0 {
		t.Fatalf("seed population inconsistent: %v", vs)
	}
	gen := &diffGen{rng: rand.New(rand.NewSource(seed)), s: got}
	for i := 0; i < batches; i++ {
		pre := dump(got)
		before := map[object.OID]*Obj{}
		for oid, o := range got.objs {
			before[oid] = &Obj{oid: oid, class: o.class, attrs: o.Attrs()}
		}
		var ops []txOp
		var at []bool
		for n := 1 + gen.rng.Intn(5); len(ops) < n; {
			op, isAt := gen.op()
			ops, at = append(ops, op), append(at, isAt)
		}
		var gotErr, wantErr error
		if !slices.Contains(at, true) && gen.rng.Intn(3) == 0 {
			ops = ops[:1]
			gotErr, wantErr = direct(got, ops[0]), directByCheckAll(want, ops[0])
		} else {
			gtx, wtx := got.Begin().(*Tx), want.Begin().(*Tx)
			staged := true
			for j, op := range ops {
				var ge, we error
				switch {
				case at[j]:
					ge, we = gtx.InsertAt(op.oid, op.class, op.attrs), wtx.InsertAt(op.oid, op.class, op.attrs)
				case op.kind == opInsert:
					_, ge = gtx.Insert(op.class, op.attrs)
					_, we = wtx.Insert(op.class, op.attrs)
				case op.kind == opUpdate:
					ge, we = gtx.Update(op.oid, op.attrs), wtx.Update(op.oid, op.attrs)
				default:
					ge, we = gtx.Delete(op.oid), wtx.Delete(op.oid)
				}
				if errText(ge) != errText(we) {
					t.Fatalf("batch %d op %d staged differently: %v vs %v", i, j, ge, we)
				}
				staged = staged && ge == nil
			}
			if !staged && gen.rng.Intn(2) == 0 {
				gtx.Rollback()
				wtx.Rollback()
				continue
			}
			gotErr, wantErr = gtx.Commit(), commitByCheckAll(wtx)
		}
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("batch %d %+v: verdict\n  commit check: %v\n  CheckAll:     %v", i, ops, gotErr, wantErr)
		}
		if g, w := dump(got), dump(want); g != w {
			t.Fatalf("batch %d %+v: post-states differ\n  commit check:\n%s  CheckAll:\n%s", i, ops, g, w)
		}
		if gotErr != nil && withoutCursor(dump(got)) != withoutCursor(pre) {
			t.Fatalf("batch %d %+v: refused, but the state moved:\n%s\nwant\n%s", i, ops, dump(got), pre)
		}
		for oid, o := range before {
			if _, ok := got.objs[oid]; !ok {
				gen.deleted = append(gen.deleted, o)
			}
		}
	}
}

// FuzzCommitDifferential holds the commit check to CheckAll over seeded
// batches on consistent stores of the Figure 1 and personnel schemas.
func FuzzCommitDifferential(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		for which := 0; which < len(diffSchemas); which++ {
			f.Add(seed, uint8(which), uint8(40))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, which, batches uint8) {
		runDifferential(t, seed, int(which), int(batches%64))
	})
}
