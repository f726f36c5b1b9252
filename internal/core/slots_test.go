package core

import (
	"runtime"
	"testing"

	"interopdb/internal/fixture"
	"interopdb/internal/object"
	"interopdb/internal/tm"
)

// sameSlots fails unless every slot of old has the same name in d.
func sameSlots(t *testing.T, when string, old, d *AttrDict) {
	t.Helper()
	if d.Len() < old.Len() {
		t.Fatalf("%s: the dictionary shrank from %d to %d slots", when, old.Len(), d.Len())
	}
	for s := range old.Len() {
		if d.Name(s) != old.Name(s) {
			t.Fatalf("%s: slot %d moved from %s to %s", when, s, old.Name(s), d.Name(s))
		}
	}
}

// TestAttrDictMembership pins the dictionary across a membership cycle
// (DESIGN §8.6 rules 1-3): Merge slots every name of the member schemas;
// an attach replaces the dictionary with one extended copy and leaves
// the copy it replaced as it was; a detach keeps the dictionary, its
// departed member's names included; a second attach of the same member
// adds no slot; and no name ever changes its slot.
func TestAttrDictMembership(t *testing.T) {
	f := newFig1Fed(t, 1)
	v := f.fs.Res.View
	d0 := v.Dict()
	for side := LocalSide; side <= RemoteSide; side++ {
		db := v.Conformed.SchemaOf(side)
		for _, cls := range db.Classes() {
			for _, a := range db.AllAttrs(cls.Name) {
				if _, ok := d0.Slot(a.Name); !ok {
					t.Errorf("Merge: %s.%s has no slot", cls.Name, a.Name)
				}
			}
		}
	}
	n0 := d0.Len()

	f.attach(t)
	d1 := v.Dict()
	if d1 == d0 || d0.Len() != n0 || d1.Len() <= n0 {
		t.Fatalf("attach: %d -> %d slots (old copy now %d): want one extended copy, the old one unchanged", n0, d1.Len(), d0.Len())
	}
	sameSlots(t, "attach", d0, d1)
	for _, g := range v.Objects {
		if g.dict != d0 && g.dict != d1 {
			t.Errorf("attach: g%d is slotted by a dictionary that is neither the old nor the new copy", g.ID)
		}
	}

	f.detach(t)
	if v.Dict() != d1 {
		t.Fatal("detach replaced the dictionary")
	}
	if _, ok := d1.Slot("keeper"); !ok {
		t.Error("detach: the departed member's names lost their slots")
	}
	for _, g := range v.Objects {
		if _, ok := g.Get("keeper"); ok {
			t.Errorf("detach: g%d still holds the departed member's keeper", g.ID)
		}
	}

	f.attach(t)
	if v.Dict() != d1 {
		t.Errorf("re-attach: the dictionary grew from %d to %d slots for names it already held", d1.Len(), v.Dict().Len())
	}
}

// TestApplyUnknownAttrExtendsDict pins DESIGN §8.6 rule 4: a member
// store refuses undeclared attributes (store's TestTypeValidation), but
// the view does not depend on that. ApplyInsert and ApplyUpdate given a
// name the dictionary lacks extend it by one copy and store the value;
// the copy they replaced, and an object frozen before, stay as they
// were.
func TestApplyUnknownAttrExtendsDict(t *testing.T) {
	local, remote := fixture.Figure1Stores(fixture.Options{})
	res, err := Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := res.View
	d0, n0 := v.Dict(), v.Dict().Len()
	frozen := v.Extent("Proceedings")[0]
	was := frozen.String()

	g, err := v.ApplyInsert("Proceedings", map[string]object.Value{
		"title": object.Str("t"), "isbn": object.Str("x-1"), "nosuch": object.Int(1), "another": object.Int(2),
	}, object.Ref{DB: "Bookseller", OID: 9999})
	if err != nil {
		t.Fatal(err)
	}
	d1 := v.Dict()
	if d1 == d0 || d0.Len() != n0 || d1.Len() != n0+2 {
		t.Fatalf("insert: %d -> %d slots (old copy now %d): want one copy with the two new names", n0, d1.Len(), d0.Len())
	}
	sameSlots(t, "insert", d0, d1)
	if x, ok := g.Get("nosuch"); !ok || !x.Equal(object.Int(1)) {
		t.Errorf("insert: nosuch = %v, %v", x, ok)
	}

	clone := v.DetachForUpdate(frozen)
	if _, _, err := v.ApplyUpdate(clone, map[string]object.Value{"rating": object.Int(3), "third": object.Str("z")}); err != nil {
		t.Fatal(err)
	}
	sameSlots(t, "update", d1, v.Dict())
	if x, ok := clone.Get("third"); !ok || !x.Equal(object.Str("z")) {
		t.Errorf("update: third = %v, %v", x, ok)
	}
	if x, _ := clone.Get("rating"); !x.Equal(object.Int(3)) {
		t.Errorf("update: rating = %v", x)
	}
	if now := frozen.String(); now != was {
		t.Errorf("the frozen original changed:\n  was %s\n  now %s", was, now)
	}
	if _, ok := frozen.Get("third"); ok {
		t.Error("the frozen original reads the clone's new attribute")
	}
}

// TestConformedSlots pins DESIGN §8.6's rules for conformed objects:
// every object conformation creates is slotted by its Conformed's one
// dictionary, which holds every name a class's plan writes; an
// ApplyUpdate fanned out to the constituents writes through their slots,
// and a name their dictionary lacks extends a copy the constituent
// adopts — the shared dictionary, and every other object, stay as they
// were, and no slot moves.
func TestConformedSlots(t *testing.T) {
	local, remote := fixture.Figure1Stores(fixture.Options{})
	res, err := Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, v := res.Conformed, res.View
	d, n := c.dict, c.dict.Len()
	for _, side := range []Side{LocalSide, RemoteSide} {
		for _, o := range c.AllObjects(side) {
			if o.dict != d {
				t.Errorf("%s: not slotted by the Conformed's dictionary", o)
			}
		}
	}
	g := globalByTitle(t, v, "Proceedings of the 22nd VLDB Conference")
	parts := g.Parts
	if len(parts) != 2 {
		t.Fatalf("vldb96 has %d constituents, want 2", len(parts))
	}
	other := c.AllObjects(LocalSide)[0]
	was := other.String()
	if _, _, err := v.ApplyUpdate(g, map[string]object.Value{"title": object.Str("VLDB 96"), "shelfmark": object.Str("QA76")}); err != nil {
		t.Fatal(err)
	}
	for _, m := range parts {
		if x, _ := m.Get("title"); !x.Equal(object.Str("VLDB 96")) {
			t.Errorf("%s: title = %v after the update", m.Src, x)
		}
		if x, ok := m.Get("shelfmark"); !ok || !x.Equal(object.Str("QA76")) {
			t.Errorf("%s: shelfmark = %v, %v after the update", m.Src, x, ok)
		}
		if m.dict == d {
			t.Errorf("%s: holds a name its dictionary lacks", m.Src)
		}
		sameSlots(t, "constituent write", d, m.dict)
	}
	if c.dict != d || d.Len() != n {
		t.Errorf("the shared dictionary changed: %d -> %d slots", n, c.dict.Len())
	}
	if other == parts[0] || other == parts[1] {
		t.Fatal("the bystander is a constituent")
	}
	if now := other.String(); now != was || other.dict != d {
		t.Errorf("another conformed object changed:\n  was %s\n  now %s", was, now)
	}
}

// graftHosts returns the objects of the combined view an UnivArchive
// graft at the scale touches, as AttachPair's detachAll batch does.
func graftHosts(t testing.TB, scale int) (*GlobalView, []*GObj) {
	t.Helper()
	f := newFig1Fed(t, scale)
	pair := f.pair(t)
	v := f.fs.Res.View
	seen := map[*GObj]bool{}
	var batch []*GObj
	for _, pg := range pair.View.Objects {
		var host *GObj
		for _, m := range pg.Parts {
			if g, ok := v.byRef[m.Src]; ok && !m.Virtual && (host == nil || g.ID < host.ID) {
				host = g
			}
		}
		if host != nil && !seen[host] {
			seen[host] = true
			batch = append(batch, host)
		}
	}
	if len(batch) == 0 {
		t.Fatal("the graft touches no host")
	}
	return v, batch
}

// TestDetachAllAllocsPerObject is the count half of BenchmarkDetachAll,
// reading no clock: cloning the hosts of a Scale 1000 graft makes at
// most 2 allocations per cloned object. A clone copies its value slice
// and takes its struct from one block per batch; it shares Parts and
// Classes instead of copying them (as maps, 7.5 allocations per object).
func TestDetachAllAllocsPerObject(t *testing.T) {
	v, batch := graftHosts(t, 1000)
	allocs := testing.AllocsPerRun(3, func() {
		clones := v.detachAll(batch)
		for j, g := range batch {
			batch[j] = clones[g]
		}
	})
	if per := allocs / float64(len(batch)); per > 2 {
		t.Errorf("detachAll makes %.2f allocations per cloned object (%d objects), bound 2", per, len(batch))
	}
}

// BenchmarkDetachAll clones every host an UnivArchive graft touches at
// Scale 1000, as AttachPair's detachAll does: ns and allocations per
// cloned object (the batch is re-cloned each iteration).
func BenchmarkDetachAll(b *testing.B) {
	v, batch := graftHosts(b, 1000)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clones := v.detachAll(batch)
		for j, g := range batch {
			batch[j] = clones[g]
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	objs := float64(b.N * len(batch))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/objs, "ns/object")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/objs, "allocs/object")
	b.ReportMetric(float64(len(batch)), "objects/op")
}
