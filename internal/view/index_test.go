package view

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/fixture"
	"interopdb/internal/object"
	"interopdb/internal/tm"
)

// TestSortOrdMatchesStableSort: buildOrd appends entries in position
// order, so ordering ties by position is the stable sort by value alone.
// Extents with few distinct values (Int and Real mixed, so 3 and 3.0
// tie) make most comparisons ties.
func TestSortOrdMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, distinct := range []int{1, 2, 7, 50} {
		for _, n := range []int{0, 1, 13, 2000} {
			entries := make([]ordEntry, n)
			for p := range entries {
				v := object.Value(object.Int(int64(rng.Intn(distinct))))
				if rng.Intn(2) == 0 {
					v = object.Real(float64(rng.Intn(distinct)))
				}
				entries[p] = ordEntry{val: v, pos: p}
			}
			want := slices.Clone(entries)
			slices.SortStableFunc(want, func(a, b ordEntry) int {
				c, _ := object.Compare(a.val, b.val)
				return c
			})
			sortOrd(entries)
			for i := range want {
				if entries[i].pos != want[i].pos || !entries[i].val.Equal(want[i].val) {
					t.Fatalf("%d distinct, n=%d: entry %d = %v@%d, stable sort has %v@%d",
						distinct, n, i, entries[i].val, entries[i].pos, want[i].val, want[i].pos)
				}
			}
		}
	}
}

// TestEqIndexSignedZero: `shopprice = 0` over an Item holding −0.0
// returns that row on the indexed path, as the reference scan's `=`
// does: the equality index files and probes values by object.Hash.
func TestEqIndexSignedZero(t *testing.T) {
	local, remote := fixture.Figure1Stores(fixture.Options{Scale: 1})
	negZero := object.Real(math.Copysign(0, -1))
	remote.MustInsert("Item", map[string]object.Value{
		"title": object.Str("Signed Zero"), "isbn": object.Str("negzero"),
		"shopprice": negZero, "libprice": negZero,
	})
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := New(res)
	for _, where := range []string{"shopprice = 0", "shopprice = 0.0", "shopprice = -0.0"} {
		q := Query{Class: "Item", Where: expr.MustParse(where)}
		fast, _, err := runVsReference(t, e, q)
		if err != nil {
			t.Fatal(err)
		}
		if fast.IndexHits == 0 {
			t.Errorf("%s: not served by the equality index: %+v", where, fast)
		}
		rows, _, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Errorf("%s: %d rows, want the −0.0 row", where, len(rows))
		}
	}
}
