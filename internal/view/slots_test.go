package view

import (
	"maps"
	"reflect"
	"testing"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/fixture"
	"interopdb/internal/logic"
	"interopdb/internal/tm"
)

// TestSlotsStableAcrossMembership pins the attribute dictionary's
// stability (DESIGN §8.6) across an UnivArchive attach and detach,
// which grow the dictionary by the archive's names and never shrink it.
// A plan built before the attach, evaluated over the objects the attach
// grafts (clones holding archive attributes at slots the plan's
// snapshot's dictionary lacks); a plan built after it, evaluated over
// the objects of the snapshot before it; and a snapshot held across the
// detach, served after it: each returns the reference scan's rows of
// its own generation, and every row equals the deep copy taken when it
// was returned.
func TestSlotsStableAcrossMembership(t *testing.T) {
	lib, bs := fixture.Figure1Stores(fixture.Options{Scale: 2})
	arch := fixture.ArchiveStore(fixture.Options{Scale: 2})
	memo := logic.NewMemo()
	opts := core.Options{Memo: memo}
	res, err := core.IntegrateOptions(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), lib, bs, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := New(res)
	fs := core.NewFedState(res, "CSLibrary", opts, memo)

	pub := Query{Class: "Publication", Where: expr.MustParse("title != isbn and libprice >= 0")}
	item := Query{Class: "Item", Where: expr.MustParse("shopprice <= libprice + 5"), Select: []string{"title", "libprice"}}
	record := Query{Class: "Record", Where: expr.MustParse("keeper != title and pages > 0"), Select: []string{"title", "keeper", "pages"}}

	var held, copies [][]Row
	// keep records rows as returned, with a deep copy to compare later.
	keep := func(rows []Row) {
		cp := make([]Row, len(rows))
		for i, r := range rows {
			cp[i] = maps.Clone(r)
		}
		held, copies = append(held, rows), append(copies, cp)
	}
	reference := func(q Query) []Row {
		t.Helper()
		rows, _, err := e.runReference(bg, q)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	// planned returns the snapshot's cached residual-only plan for q.
	planned := func(s *snapshot, q Query) *plan {
		t.Helper()
		if _, _, err := e.runSnapshot(bg, s, q); err != nil {
			t.Fatal(err)
		}
		p, hit, err := e.planFor(bg, s, s.class(q.Class), q.Where, e.UseConstraints)
		if err != nil || !hit || p.residual == nil || p.served != 0 || p.pruned {
			t.Fatalf("%v: want a cached residual scan plan, got hit=%v %+v %v", q.Where, hit, p, err)
		}
		return p
	}
	// evalOver evaluates a plan's residual over a snapshot's extent.
	evalOver := func(p *plan, s *snapshot, q Query) []Row {
		t.Helper()
		env := s.queryEnv()
		var rows []Row
		for _, g := range s.class(q.Class).ext {
			env.Self = g
			ok, err := env.EvalBool(p.residual)
			if err != nil {
				t.Fatalf("%v on g%d: %v", q.Where, g.ID, err)
			}
			if ok {
				rows = append(rows, projectRow(g, q.Select))
			}
		}
		keep(rows)
		return rows
	}
	same := func(what string, got, want []Row) {
		t.Helper()
		if len(want) == 0 {
			t.Fatalf("%s: the reference returns no rows, the check is vacuous", what)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\ngot       %v\nreference %v", what, got, want)
		}
	}

	s1 := e.snap.Load()
	d1 := s1.dict.Len()
	pubPlan := planned(s1, pub)
	itemBefore := reference(item)
	keep(itemBefore)

	pair, err := core.IntegrateOptions(tm.Figure1Library(), tm.Figure1UnivArchive(), tm.Figure1ArchiveIntegration(), lib, arch, 1, fs.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Rebind(func() (changed, removed []string, err error) {
		changed, err = fs.AttachPair(pair, "UnivArchive", "CSLibrary")
		return changed, nil, err
	}); err != nil {
		t.Fatal(err)
	}
	s2 := e.snap.Load()
	if s2.dict == s1.dict || s1.dict.Len() != d1 || s2.dict.Len() <= d1 {
		t.Fatalf("attach: dictionary %d -> %d slots (old copy now %d): want one extended copy, the old one unchanged", d1, s2.dict.Len(), s1.dict.Len())
	}
	for i := range d1 {
		if s2.dict.Name(i) != s1.dict.Name(i) {
			t.Fatalf("attach moved slot %d: %s -> %s", i, s1.dict.Name(i), s2.dict.Name(i))
		}
	}
	grafted := 0
	for _, g := range s2.class(pub.Class).ext {
		if _, ok := g.Get("keeper"); ok {
			grafted++
		}
	}
	if grafted == 0 {
		t.Fatal("the attach grafted no archive attribute onto a Publication")
	}

	// A plan built before the attach, over the objects it grafted.
	same("pre-attach plan over grafted Publications", evalOver(pubPlan, s2, pub), reference(pub))
	// A plan built after it, over the objects before it.
	same("post-attach plan over pre-attach Items", evalOver(planned(s2, item), s1, item), itemBefore)
	// The served rows of the attached view, archive names included.
	for _, q := range []Query{pub, item, record} {
		rows, _, err := e.runSnapshot(bg, s2, q)
		if err != nil {
			t.Fatal(err)
		}
		same("served after attach: "+q.Class, rows, reference(q))
		keep(rows)
	}
	var beforeDetach [][]Row
	for _, q := range []Query{pub, item, record} {
		beforeDetach = append(beforeDetach, reference(q))
	}

	if err := e.Rebind(func() (changed, removed []string, err error) {
		return fs.DetachMember("UnivArchive")
	}); err != nil {
		t.Fatal(err)
	}
	if got := e.snap.Load().dict; got != s2.dict {
		t.Errorf("detach replaced the dictionary (%d slots, was %d): it must never shrink or move", got.Len(), s2.dict.Len())
	}
	// The snapshot held across the detach serves what it served before.
	for i, q := range []Query{pub, item, record} {
		rows, _, err := e.runSnapshot(bg, s2, q)
		if err != nil {
			t.Fatal(err)
		}
		same("snapshot held across detach: "+q.Class, rows, beforeDetach[i])
		keep(rows)
	}
	for _, q := range []Query{pub, item} {
		rows, _, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		same("served after detach: "+q.Class, rows, reference(q))
	}
	if !reflect.DeepEqual(held, copies) {
		t.Error("a row returned during the membership cycle changed afterwards")
	}
}

// TestReferenceScanAllocBound pins the reference scan's per-row cost
// (runReference, what RunContext serves with UseIndexes off and what the
// differential suites compare against): one evaluation environment per
// query, answering the declared-attribute question from the view's
// per-class table, so a rejected row allocates nothing — the same count
// at 23 and 103 candidates — and a returned row only its fresh
// projection (the map and its group).
func TestReferenceScanAllocBound(t *testing.T) {
	var reject [2]float64
	for i, scale := range []int{10, 50} {
		e := scaledEngine(t, scale)
		e.UseIndexes = false
		run := func(q Query) (float64, int) {
			rows, st, err := e.Run(q)
			if err != nil || st.Scanned == 0 {
				t.Fatalf("%v: %d rows, %+v, %v", q.Where, len(rows), st, err)
			}
			return testing.AllocsPerRun(10, func() { e.Run(q) }), len(rows)
		}
		// A member classified under Proceedings by a Sim rule stores no
		// ref?, so it asks the declared-attribute question.
		n, rows := run(Query{Class: "Proceedings", Where: expr.MustParse("title = isbn or not ref? and rating = 11")})
		if rows != 0 {
			t.Fatalf("want a scan that rejects every row, got %d rows", rows)
		}
		reject[i] = n
		all, rows := run(Query{Class: "Proceedings", Where: expr.MustParse("title != isbn"), Select: []string{"title", "isbn"}})
		grows, length, capacity := 0, 0, 0
		for range rows {
			if length == capacity {
				grows++
				capacity = cap(append(make([]Row, length, capacity), nil))
			}
			length++
		}
		if limit := n + float64(2*rows+grows); all > limit {
			t.Errorf("scale %d: returning %d rows allocates %.0f objects, want at most %.0f (2 per row)", scale, rows, all, limit)
		}
	}
	if reject[0] != reject[1] {
		t.Errorf("a rejecting reference scan allocates %.0f objects at scale 10 and %.0f at scale 50, want the same", reject[0], reject[1])
	}
}
