package view

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/fixture"
	"interopdb/internal/object"
	"interopdb/internal/store"
	"interopdb/internal/tm"
)

// scaledEngineStores builds the engine over the repaired Figure 1 spec
// at the given fixture scale and binds both component stores as its
// member registry, so Ship routes to them.
func scaledEngineStores(t testing.TB, scale int) (*Engine, *store.Store, *store.Store) {
	t.Helper()
	local, remote := fixture.Figure1Stores(fixture.Options{Scale: scale})
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		t.Fatalf("Integrate: %v", err)
	}
	e := New(res)
	bindStores(t, e, local, remote)
	return e, local, remote
}

// bindStores binds the stores to the engine as its member registry.
func bindStores(t testing.TB, e *Engine, stores ...*store.Store) {
	t.Helper()
	reg := store.NewRegistry()
	for _, st := range stores {
		if err := reg.Add(st); err != nil {
			t.Fatal(err)
		}
	}
	e.BindStores(reg)
}

// bg is the never-cancelled context of tests with no deadline to pin.
var bg = context.Background()

// insertOf, updateOf and deleteOf build singleton batches.
func insertOf(class string, attrs map[string]object.Value) []Mutation {
	return []Mutation{{Kind: MutInsert, Class: class, Attrs: attrs}}
}

func updateOf(class string, id int, attrs map[string]object.Value) []Mutation {
	return []Mutation{{Kind: MutUpdate, Class: class, ID: id, Attrs: attrs}}
}

func deleteOf(class string, id int) []Mutation {
	return []Mutation{{Kind: MutDelete, Class: class, ID: id}}
}

// ship ships the batch with no deadline.
func ship(e *Engine, ops []Mutation) error { return e.Ship(bg, ops) }

// rejectionsOf validates the batch and returns its rejections; a
// validation error (unknown class or object) fails the test.
func rejectionsOf(t testing.TB, e *Engine, ops []Mutation) []Rejection {
	t.Helper()
	rejs, _, err := e.Validate(bg, ops)
	if err != nil {
		t.Errorf("Validate: %v", err)
	}
	return rejs
}

// findByISBN returns the Item member holding the isbn.
func findByISBN(t testing.TB, e *Engine, isbn string) *core.GObj {
	t.Helper()
	for _, g := range e.res.View.Extent("Item") {
		if v, ok := g.Get("isbn"); ok && v.Equal(object.Str(isbn)) {
			return g
		}
	}
	t.Fatalf("no Item with isbn %q", isbn)
	return nil
}

// TestValidateUpdateDeltaVsCheckAll pins the acceptance criterion: at
// Scale 50 a delta-restricted Validate re-checks strictly fewer
// constraint×row pairs than exhaustive re-validation, and skips
// constraints whose footprint the update cannot touch.
func TestValidateUpdateDeltaVsCheckAll(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 50)
	g := findByISBN(t, e, "vldb96")

	// Touching ref? intersects the IEEE constraint's footprint: exactly
	// one constraint×row pair is evaluated.
	rejs, upd, err := e.Validate(bg, updateOf("Proceedings", g.ID, map[string]object.Value{"ref?": object.Bool(true)}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rejs) != 0 {
		t.Fatalf("ref? := true on a refereed proceedings rejected: %v", rejs)
	}
	if upd.ConstraintsChecked == 0 || upd.PairsChecked == 0 {
		t.Fatalf("delta check did no work: %+v", upd)
	}

	// Touching only the authors set intersects no constraint footprint
	// in the object's whole class group (title would: the ProceedingsLike
	// disjunction reads it): zero pairs, everything skipped.
	_, none, err := e.Validate(bg, updateOf("Proceedings", g.ID, map[string]object.Value{"authors": object.NewSet(object.Str("Zobel"))}))
	if err != nil {
		t.Fatal(err)
	}
	if none.PairsChecked != 0 {
		t.Errorf("authors-only update evaluated %d pairs, want 0", none.PairsChecked)
	}
	if none.ConstraintsSkipped == 0 {
		t.Errorf("authors-only update skipped nothing: %+v", none)
	}

	viols, full := e.CheckAll()
	if len(viols) != 0 {
		t.Fatalf("CheckAll on the untouched fixture found violations: %v", viols)
	}
	if upd.PairsChecked >= full.PairsChecked {
		t.Errorf("delta update checked %d pairs, CheckAll %d — want strictly fewer",
			upd.PairsChecked, full.PairsChecked)
	}
	t.Logf("scale 50: Validate pairs=%d skipped=%d; CheckAll pairs=%d",
		upd.PairsChecked, upd.ConstraintsSkipped, full.PairsChecked)
}

// TestValidateUpdateRejectsWithRepair: clearing ref? on an IEEE-published
// proceedings violates the derived objective constraint; the rejection
// carries the minimal repair (restore ref? = true), and applying the
// repair validates cleanly.
func TestValidateUpdateRejectsWithRepair(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 1)
	g := findByISBN(t, e, "vldb96") // published by IEEE

	rejs, _, err := e.Validate(bg, updateOf("Proceedings", g.ID, map[string]object.Value{"ref?": object.Bool(false)}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rejs) != 1 {
		t.Fatalf("rejections = %v, want exactly the IEEE constraint", rejs)
	}
	if got := rejs[0].Constraint.Expr.String(); got != "publisher.name = 'IEEE' implies ref? = true" {
		t.Errorf("rejected by %q", got)
	}
	if len(rejs[0].Repairs) == 0 {
		t.Fatal("rejection carries no repair proposal")
	}
	rep := rejs[0].Repairs[0]
	if rep.Kind != RepairSetAttr || rep.Attr != "ref?" || !rep.Value.Equal(object.Bool(true)) {
		t.Errorf("repair = %+v, want set ref? := true", rep)
	}

	// The proposed repair restores consistency.
	again, _, err := e.Validate(bg, updateOf("Proceedings", g.ID, map[string]object.Value{rep.Attr: rep.Value}))
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Errorf("repaired update still rejected: %v", again)
	}
}

// TestValidateUpdateKeyConflict: moving an object onto another object's
// key is rejected with a tuple-deletion repair naming the conflicting
// tuple; a delete of that tuple earlier in the same batch frees the key.
func TestValidateUpdateKeyConflict(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 1)
	holder := findByISBN(t, e, "vldb96")
	mover := findByISBN(t, e, "tp-book")

	rejs, _, err := e.Validate(bg, updateOf("Item", mover.ID, map[string]object.Value{"isbn": object.Str("vldb96")}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rejs) != 1 {
		t.Fatalf("rejections = %v, want one key violation", rejs)
	}
	if len(rejs[0].Repairs) != 1 || rejs[0].Repairs[0].Kind != RepairDeleteTuple || rejs[0].Repairs[0].ID != holder.ID {
		t.Errorf("repairs = %v, want delete-tuple g%d", rejs[0].Repairs, holder.ID)
	}

	// Batch order matters: delete the holder first and the key is free.
	rejs, _, err = e.Validate(bg, []Mutation{
		{Kind: MutDelete, Class: "Item", ID: holder.ID},
		{Kind: MutUpdate, Class: "Item", ID: mover.ID, Attrs: map[string]object.Value{"isbn": object.Str("vldb96")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rejs) != 0 {
		t.Errorf("delete-then-update batch rejected: %v", rejs)
	}

	// Reversed, the update still sees the holder.
	rejs, _, err = e.Validate(bg, []Mutation{
		{Kind: MutUpdate, Class: "Item", ID: mover.ID, Attrs: map[string]object.Value{"isbn": object.Str("vldb96")}},
		{Kind: MutDelete, Class: "Item", ID: holder.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rejs) != 1 {
		t.Errorf("update-then-delete batch: rejections = %v, want one", rejs)
	}
}

// TestValidateTxIntraBatchInserts: two staged inserts claiming one key
// conflict with each other before anything ships.
func TestValidateTxIntraBatchInserts(t *testing.T) {
	e, _, remote := scaledEngineStores(t, 1)
	_ = remote
	mk := func(isbn string) map[string]object.Value {
		return map[string]object.Value{
			"title": object.Str("batch " + isbn), "isbn": object.Str(isbn),
			"publisher": object.Ref{DB: "Bookseller", OID: 3},
			"shopprice": object.Real(20), "libprice": object.Real(15),
		}
	}
	rejs, _, err := e.Validate(bg, []Mutation{
		{Kind: MutInsert, Class: "Item", Attrs: mk("twin")},
		{Kind: MutInsert, Class: "Item", Attrs: mk("twin")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rejs) != 1 {
		t.Fatalf("intra-batch duplicate key: rejections = %v, want one", rejs)
	}
	if len(rejs[0].Repairs) != 0 {
		t.Errorf("conflict with a staged insert has no deletable tuple, got %v", rejs[0].Repairs)
	}

	// Distinct keys pass.
	rejs, _, err = e.Validate(bg, []Mutation{
		{Kind: MutInsert, Class: "Item", Attrs: mk("twin-a")},
		{Kind: MutInsert, Class: "Item", Attrs: mk("twin-b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rejs) != 0 {
		t.Errorf("distinct keys rejected: %v", rejs)
	}
}

// TestValidateDeleteSkipsSelfConstraints: a deletion cannot violate the
// removed object's own constraints or a key, so with no extent-reading
// constraints derived for the class the delta rule checks zero pairs.
func TestValidateDeleteSkipsSelfConstraints(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 1)
	g := findByISBN(t, e, "wkshp1")
	rejs, stats, err := e.Validate(bg, deleteOf("Proceedings", g.ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(rejs) != 0 {
		t.Errorf("delete rejected: %v", rejs)
	}
	if stats.PairsChecked != 0 {
		t.Errorf("delete validation evaluated %d pairs, want 0 (no extent-reading constraints)", stats.PairsChecked)
	}
	if stats.ConstraintsSkipped == 0 {
		t.Error("delete validation skipped nothing")
	}
}

// TestShipUpdateLifecycle: a shipped update commits at the component
// store, updates the integrated view, maintains the extent indexes, and
// reclassifies the object across Sim memberships.
func TestShipUpdateLifecycle(t *testing.T) {
	e, _, remote := scaledEngineStores(t, 1)
	g := findByISBN(t, e, "caise96") // bookseller-only refereed proceedings

	// Warm the indexes so maintenance (not lazy rebuild) is exercised.
	for _, q := range []Query{
		{Class: "Proceedings", Where: expr.MustParse("rating >= 7")},
		{Class: "Item", Where: expr.MustParse("isbn = 'caise96'")},
		{Class: "RefereedPubl", Where: expr.MustParse("rating >= 7")},
	} {
		if _, _, err := e.Run(q); err != nil {
			t.Fatal(err)
		}
	}

	if err := ship(e, updateOf("Proceedings", g.ID, map[string]object.Value{"rating": object.Int(9)})); err != nil {
		t.Fatalf("Ship: %v", err)
	}
	// The component store saw the update.
	for _, o := range remote.FindByAttr("Proceedings", "isbn", object.Str("caise96")) {
		if v, _ := o.Get("rating"); !v.Equal(object.Int(9)) {
			t.Errorf("store rating = %v, want 9", v)
		}
	}
	// Indexed and scan paths agree on the new value.
	runVsReference(t, e, Query{Class: "Proceedings", Where: expr.MustParse("rating >= 9")})
	rows, _, err := e.Run(Query{Class: "Proceedings", Where: expr.MustParse("rating >= 9"), Select: []string{"isbn"}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rows {
		if r["isbn"].Equal(object.Str("caise96")) {
			found = true
		}
	}
	if !found {
		t.Error("updated rating not served")
	}

	// Clearing ref? moves the object out of RefereedPubl (r3 membership).
	if err := ship(e, updateOf("Proceedings", g.ID, map[string]object.Value{"ref?": object.Bool(false), "rating": object.Int(5)})); err != nil {
		t.Fatalf("Ship ref?: %v", err)
	}
	runVsReference(t, e, Query{Class: "RefereedPubl", Where: expr.MustParse("rating >= 1")})
	rrows, _, err := e.Run(Query{Class: "RefereedPubl", Select: []string{"isbn"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rrows {
		if r["isbn"] != nil && r["isbn"].Equal(object.Str("caise96")) {
			t.Error("object still served from RefereedPubl after ref? := false")
		}
	}

	// A local rejection leaves everything untouched: rating 2 with
	// ref? = true violates the Bookseller's oc2 at the store.
	g2 := findByISBN(t, e, "vldb96")
	before, _, _ := e.Run(Query{Class: "Proceedings", Where: expr.MustParse("rating >= 8")})
	if err := ship(e, updateOf("Proceedings", g2.ID, map[string]object.Value{"rating": object.Int(2)})); err == nil {
		t.Fatal("rating 2 on a refereed proceedings must be rejected by the local manager")
	}
	after, _, _ := e.Run(Query{Class: "Proceedings", Where: expr.MustParse("rating >= 8")})
	if len(before) != len(after) {
		t.Errorf("rejected update changed the view: %d vs %d rows", len(before), len(after))
	}
}

// TestShipDeleteLifecycle: a shipped delete removes the object from the
// component store and the view; a locally rejected delete is a no-op.
func TestShipDeleteLifecycle(t *testing.T) {
	e, _, remote := scaledEngineStores(t, 1)

	// Deleting the only ACM item violates db1 (every publisher has an
	// item) at the Bookseller: rejected, view unchanged.
	mono := findByISBN(t, e, "tp-book")
	if err := ship(e, deleteOf("Item", mono.ID)); err == nil {
		t.Fatal("deleting ACM's only item must be rejected by db1")
	}
	if _, ok := e.res.View.ByID(mono.ID); !ok {
		t.Fatal("rejected delete removed the object from the view")
	}

	// Warm indexes, then delete a bookseller-only workshop proceedings
	// (Springer keeps other items, so db1 holds).
	for _, q := range []Query{
		{Class: "Item", Where: expr.MustParse("isbn = 'wkshp1'")},
		{Class: "Proceedings", Where: expr.MustParse("rating >= 1")},
	} {
		if _, _, err := e.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	wk := findByISBN(t, e, "wkshp1")
	if err := ship(e, deleteOf("Proceedings", wk.ID)); err != nil {
		t.Fatalf("Ship: %v", err)
	}
	if len(remote.FindByAttr("Item", "isbn", object.Str("wkshp1"))) != 0 {
		t.Error("store still holds the deleted object")
	}
	runVsReference(t, e, Query{Class: "Item", Where: expr.MustParse("isbn = 'wkshp1'")})
	rows, _, err := e.Run(Query{Class: "Item", Where: expr.MustParse("isbn = 'wkshp1'")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("deleted object still served: %v", rows)
	}

	// The freed key is insertable again (index counts maintained).
	attrs := map[string]object.Value{
		"title": object.Str("reborn"), "isbn": object.Str("wkshp1"),
		"publisher": object.Ref{DB: "Bookseller", OID: 3},
		"shopprice": object.Real(10), "libprice": object.Real(5),
	}
	if rejs := rejectionsOf(t, e, insertOf("Item", attrs)); len(rejs) != 0 {
		t.Errorf("insert reclaiming a freed key rejected: %v", rejs)
	}
}

// TestShipTxMixedBatch: a mixed batch ships as one deferred-validation
// local transaction — all-or-nothing at the store AND at the view.
func TestShipTxMixedBatch(t *testing.T) {
	e, _, remote := scaledEngineStores(t, 1)
	upd := findByISBN(t, e, "caise96")
	del := findByISBN(t, e, "wkshp1")
	mk := func(isbn string, lib, shop float64) map[string]object.Value {
		return map[string]object.Value{
			"title": object.Str("batch " + isbn), "isbn": object.Str(isbn),
			"publisher": object.Ref{DB: "Bookseller", OID: 3},
			"shopprice": object.Real(shop), "libprice": object.Real(lib),
		}
	}

	itemsBefore := len(e.res.View.Extent("Item"))
	// A failing batch: the second insert violates oc1 (libprice >
	// shopprice) at deferred local validation. Nothing — including the
	// valid first ops — may stick.
	err := ship(e, []Mutation{
		{Kind: MutInsert, Class: "Item", Attrs: mk("batch-ok", 10, 20)},
		{Kind: MutUpdate, Class: "Proceedings", ID: upd.ID, Attrs: map[string]object.Value{"rating": object.Int(9)}},
		{Kind: MutInsert, Class: "Item", Attrs: mk("batch-bad", 99, 20)},
	})
	if err == nil {
		t.Fatal("batch with an oc1 violation must fail at commit")
	}
	if n := len(e.res.View.Extent("Item")); n != itemsBefore {
		t.Fatalf("failed batch changed the view: %d vs %d items", n, itemsBefore)
	}
	if v, _ := upd.Get("rating"); !v.Equal(object.Int(7)) {
		t.Errorf("failed batch leaked an update: rating = %v", v)
	}
	if len(remote.FindByAttr("Item", "isbn", object.Str("batch-ok"))) != 0 {
		t.Error("failed batch leaked an insert into the store")
	}

	// The clean batch commits once and applies everywhere.
	err = ship(e, []Mutation{
		{Kind: MutInsert, Class: "Item", Attrs: mk("batch-ok", 10, 20)},
		{Kind: MutUpdate, Class: "Proceedings", ID: upd.ID, Attrs: map[string]object.Value{"rating": object.Int(9)}},
		{Kind: MutDelete, Class: "Proceedings", ID: del.ID},
	})
	if err != nil {
		t.Fatalf("Ship: %v", err)
	}
	if n := len(e.res.View.Extent("Item")); n != itemsBefore { // +1 insert −1 delete
		t.Errorf("view Item extent = %d, want %d", n, itemsBefore)
	}
	// Updates detach a clone into the view (snapshot freeze contract),
	// so the pre-update pointer keeps its frozen state: re-resolve.
	updNow, ok := e.res.View.ByID(upd.ID)
	if !ok {
		t.Fatal("updated object vanished from the view")
	}
	if v, _ := updNow.Get("rating"); !v.Equal(object.Int(9)) {
		t.Errorf("rating after batch = %v, want 9", v)
	}
	if v, _ := upd.Get("rating"); !v.Equal(object.Int(7)) {
		t.Errorf("pre-update pointer must stay frozen at 7, got %v", v)
	}
	if _, ok := e.res.View.ByID(del.ID); ok {
		t.Error("batched delete not applied to the view")
	}
	runVsReference(t, e, Query{Class: "Item", Where: expr.MustParse("isbn = 'batch-ok'")})
}

// mutationQueries is the differential battery evaluated after every
// random mutation.
var mutationQueries = []Query{
	{Class: "Item", Where: expr.MustParse("isbn = 'vldb96'")},
	{Class: "Item", Where: expr.MustParse("shopprice <= 30")},
	{Class: "Item", Where: expr.MustParse("shopprice > 20 and libprice < 60")},
	{Class: "Proceedings", Where: expr.MustParse("rating >= 7")},
	{Class: "Proceedings", Where: expr.MustParse("ref? = true")},
	{Class: "Proceedings", Where: expr.MustParse("rating in {5, 8, 9}")},
	{Class: "Proceedings", Where: expr.MustParse("rating >= 7 and publisher.name = 'IEEE'")},
	{Class: "RefereedPubl", Where: expr.MustParse("rating >= 1")},
	{Class: "NonRefereedPubl", Where: expr.MustParse("rating <= 6")},
	{Class: "Item", Select: []string{"title", "isbn"}},
}

// checkViewInvariants asserts the view's structural consistency: class
// membership and extents agree both ways, and every extent member is
// resolvable by ID.
func checkViewInvariants(t *testing.T, e *Engine) {
	t.Helper()
	v := e.res.View
	for _, cls := range v.ClassNames {
		for _, g := range v.Extent(cls) {
			if !g.Classes[cls] {
				t.Fatalf("g%d in extent of %s but Classes disagrees", g.ID, cls)
			}
			if _, ok := v.ByID(g.ID); !ok {
				t.Fatalf("g%d in extent of %s but not resolvable by ID", g.ID, cls)
			}
		}
	}
	for _, g := range v.Objects {
		for cls := range g.Classes {
			found := false
			for _, o := range v.Extent(cls) {
				if o == g {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("g%d claims class %s but extent disagrees", g.ID, cls)
			}
		}
	}
}

// validateBoth validates the batch with the key index on and off and
// asserts the two agree on everything Validate returns: rejections with
// their details and repairs, ValidateStats, and the error.
func validateBoth(t *testing.T, e *Engine, what string, ops []Mutation) []Rejection {
	t.Helper()
	e.UseIndexes = false
	scanRejs, scanStats, scanErr := e.Validate(bg, ops)
	e.UseIndexes = true
	rejs, stats, err := e.Validate(bg, ops)
	if fmt.Sprint(err) != fmt.Sprint(scanErr) {
		t.Fatalf("%s: error divergence: indexed=%v scan=%v", what, err, scanErr)
	}
	if stats != scanStats {
		t.Fatalf("%s: stats divergence: indexed=%+v scan=%+v", what, stats, scanStats)
	}
	if !reflect.DeepEqual(rejs, scanRejs) {
		t.Fatalf("%s: rejection divergence:\nindexed=%v\nscan=%v", what, rejs, scanRejs)
	}
	return rejs
}

// TestMutationDifferentialRandomized drives 200+ random mixed mutations
// (singleton insert / update / delete and mixed batches) through the
// engine at several scales. Every generated batch is first validated
// with the key index on and off (validateBoth); after every shipped
// operation the indexed serving path, the pure-scan path and the view
// state must agree — the invariant that pins publication-time index
// rebuilds and ApplyUpdate/ApplyDelete reclassification. Every 20th
// step adds the batches on which the key index must defer to the
// overlay scan, and one validated while a publication is staged.
func TestMutationDifferentialRandomized(t *testing.T) {
	for _, scale := range []int{1, 10, 50} {
		t.Run(fmt.Sprintf("scale=%d", scale), func(t *testing.T) {
			e, _, remote := scaledEngineStores(t, scale)
			rng := rand.New(rand.NewSource(int64(scale) * 7919))
			nops := 200
			if scale == 50 {
				nops = 60 // full battery per op: keep the runtime bounded
			}

			publishers := remote.Extent("Publisher")
			randItem := func() *core.GObj {
				ext := e.res.View.Extent("Item")
				if len(ext) == 0 {
					return nil
				}
				return ext[rng.Intn(len(ext))]
			}
			mkInsert := func(i int) map[string]object.Value {
				pub := publishers[rng.Intn(len(publishers))]
				a := map[string]object.Value{
					"title": object.Str(fmt.Sprintf("rnd-%d", i)), "isbn": object.Str(fmt.Sprintf("rnd-%d-%d", scale, i)),
					"publisher": object.Ref{DB: remote.Name(), OID: pub.OID()},
					"shopprice": object.Real(float64(10 + rng.Intn(80))),
				}
				a["libprice"] = object.Real(float64(rng.Intn(20)) + 5)
				if rng.Intn(8) == 0 {
					a["libprice"] = object.Real(200) // violates oc1 → local rejection
				}
				return a
			}
			shipped, rejected := 0, 0
			for i := 0; i < nops; i++ {
				var ops []Mutation
				switch rng.Intn(10) {
				case 0, 1, 2: // insert
					ops = insertOf("Item", mkInsert(i))
				case 3, 4, 5: // update
					if g := randItem(); g != nil {
						attrs := map[string]object.Value{}
						switch rng.Intn(4) {
						case 0:
							attrs["shopprice"] = object.Real(float64(10 + rng.Intn(90)))
							attrs["libprice"] = object.Real(float64(rng.Intn(15)))
						case 1:
							attrs["title"] = object.Str(fmt.Sprintf("renamed-%d", i))
						case 2:
							attrs["rating"] = object.Int(int64(1 + rng.Intn(10))) // may hit oc2/oc3 locally
						case 3:
							attrs["ref?"] = object.Bool(rng.Intn(2) == 0)
							attrs["rating"] = object.Int(int64(7 + rng.Intn(3)))
						}
						ops = updateOf("Item", g.ID, attrs)
					}
				case 6, 7: // delete
					if g := randItem(); g != nil {
						ops = deleteOf("Item", g.ID)
					}
				default: // mixed batch
					ops = insertOf("Item", mkInsert(1000+i))
					if g := randItem(); g != nil && rng.Intn(2) == 0 {
						ops = append(ops, Mutation{Kind: MutUpdate, Class: "Item", ID: g.ID,
							Attrs: map[string]object.Value{"shopprice": object.Real(float64(20 + rng.Intn(60)))}})
					}
				}
				if ops != nil {
					validateBoth(t, e, fmt.Sprintf("op %d", i), ops)
					if err := ship(e, ops); err != nil {
						rejected++ // a local manager refused: state must be unchanged
					} else {
						shipped++
					}
				}
				for _, q := range mutationQueries {
					runVsReference(t, e, q)
				}
				if i%20 == 0 {
					checkViewInvariants(t, e)
					keyOverlayDifferential(t, e, remote, i)
				}
			}
			checkViewInvariants(t, e)
			if shipped == 0 {
				t.Error("randomized run shipped nothing")
			}
			t.Logf("scale %d: %d shipped, %d locally rejected", scale, shipped, rejected)
		})
	}
}

// keyOverlayDifferential runs validateBoth over the batches whose key
// verdict depends on more than the published extent — where the key
// index's "no holder" must not be trusted, or is not the whole answer —
// and checks each verdict, so a filter that skipped the scan wrongly
// fails here in indexed mode.
func keyOverlayDifferential(t *testing.T, e *Engine, remote *store.Store, step int) {
	t.Helper()
	holder := e.res.View.Extent("Item")[step%len(e.res.View.Extent("Item"))]
	held, _ := holder.Get("isbn")
	fresh := object.Str(fmt.Sprintf("overlay-%d", step))
	item := func(isbn object.Value) Mutation {
		return Mutation{Kind: MutInsert, Class: "Item", Attrs: map[string]object.Value{
			"title": object.Str("overlay"), "isbn": isbn,
			"publisher": object.Ref{DB: remote.Name(), OID: remote.Extent("Publisher")[0].OID()},
			"shopprice": object.Real(10), "libprice": object.Real(5),
		}}
	}
	rekey := func(isbn object.Value) Mutation {
		return Mutation{Kind: MutUpdate, Class: "Item", ID: holder.ID, Attrs: map[string]object.Value{"isbn": isbn}}
	}
	keyRejections := func(rejs []Rejection) int {
		n := 0
		for _, r := range rejs {
			if _, isKey := r.Constraint.Expr.(expr.Key); isKey {
				n++
			}
		}
		return n
	}
	for _, c := range []struct {
		what string
		ops  []Mutation
		want int // key rejections
	}{
		{"insert of a held key", []Mutation{item(held)}, 1},
		{"insert of a fresh key", []Mutation{item(fresh)}, 0},
		{"update frees a key an insert then takes", []Mutation{rekey(fresh), item(held)}, 0},
		{"update takes a key an insert then claims", []Mutation{rekey(fresh), item(fresh)}, 1},
		{"delete then insert of the same key", []Mutation{{Kind: MutDelete, Class: "Item", ID: holder.ID}, item(held)}, 0},
		{"two inserts claiming one key", []Mutation{item(fresh), item(fresh)}, 1},
		{"update re-assigning its own key", []Mutation{rekey(held)}, 0},
	} {
		what := fmt.Sprintf("step %d: %s", step, c.what)
		if got := keyRejections(validateBoth(t, e, what, c.ops)); got != c.want {
			t.Fatalf("%s: %d key rejections, want %d", what, got, c.want)
		}
	}

	// A call made while a publication is staged: commit an insert to the
	// store and apply it to the live view through Ship's own apply path,
	// but hold the flush back, so the published snapshot lags the live
	// extent by one holder while the key index does not.
	staged := item(object.Str(fmt.Sprintf("staged-%d", step)))
	tx := remote.Begin()
	oid, err := tx.Insert("Item", staged.Attrs)
	if err == nil {
		err = tx.Commit()
	}
	if err != nil {
		t.Fatalf("step %d: staging insert: %v", step, err)
	}
	e.mu.Lock()
	err = e.applyShipped([]shippedOp{{op: staged, oid: oid, db: remote.Name()}})
	e.mu.Unlock()
	if err != nil {
		t.Fatalf("step %d: applyShipped: %v", step, err)
	}
	what := fmt.Sprintf("step %d: insert of a key held only by a staged publication", step)
	if got := keyRejections(validateBoth(t, e, what, []Mutation{staged})); got != 1 {
		t.Fatalf("%s: %d key rejections, want 1", what, got)
	}
	e.ensurePublished()
}

// TestValidateVerdictIndependentOfNamedClass pins the class-closure fix:
// validation checks the constraint group of EVERY class the object
// belongs to, so the same doomed update is rejected no matter which of
// the object's classes the caller names (a clean verdict via a
// superclass would ship a mutation the local manager then refuses).
func TestValidateVerdictIndependentOfNamedClass(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 1)
	g := findByISBN(t, e, "vldb96") // IEEE-published: ref? = false violates oc1
	for _, class := range []string{"Proceedings", "Item", "Publication", "RefereedPubl"} {
		if !g.Classes[class] {
			t.Fatalf("fixture drift: vldb96 not in %s", class)
		}
		rejs, _, err := e.Validate(bg, updateOf(class, g.ID, map[string]object.Value{"ref?": object.Bool(false)}))
		if err != nil {
			t.Fatalf("via %s: %v", class, err)
		}
		found := false
		for _, r := range rejs {
			if r.Constraint.Expr.String() == "publisher.name = 'IEEE' implies ref? = true" {
				found = true
			}
		}
		if !found {
			t.Errorf("update validated via %s missed the IEEE rejection: %v", class, rejs)
		}
	}

	// Inserts get the chain closure too: a Proceedings insert must
	// satisfy Item's key constraint.
	rejs := rejectionsOf(t, e, insertOf("Proceedings", map[string]object.Value{
		"title": object.Str("dup"), "isbn": object.Str("vldb96"), // Item key collision
		"publisher": object.Ref{DB: "Bookseller", OID: 3},
		"shopprice": object.Real(20), "libprice": object.Real(15),
		"ref?": object.Bool(true), "rating": object.Int(8),
	}))
	foundKey := false
	for _, r := range rejs {
		if _, isKey := r.Constraint.Expr.(expr.Key); isKey {
			foundKey = true
			if len(r.Repairs) != 1 || r.Repairs[0].Kind != RepairDeleteTuple {
				t.Errorf("key rejection repairs = %v, want one delete-tuple", r.Repairs)
			}
		}
	}
	if !foundKey {
		t.Errorf("Proceedings insert with duplicate isbn missed Item's key constraint: %v", rejs)
	}
}
