package view

import (
	"math/rand"
	"slices"
	"testing"

	"interopdb/internal/object"
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
