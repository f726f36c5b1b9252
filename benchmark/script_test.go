package main

import (
	"testing"

	"interopdb/internal/object"
)

// The same seed must give byte-identical inputs, another seed others.
func TestScriptHashFollowsSeed(t *testing.T) {
	gens := map[string]func(seed int64) string{
		wlPointRead: func(seed int64) string { return genPointRead(seed, smokeScale, 2, 400).hash },
		wlMixed:     func(seed int64) string { return genMixed(seed, smokeScale, 2, 400).hash },
		wlScanRead:  func(seed int64) string { return genScan(seed, smokeScale, 2, 400).hash },
		wlFederate:  func(seed int64) string { return hashFederate(seed, smokeScale, 4) },
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if a != b {
			t.Errorf("%s: seed 7 hashed to %s and then to %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 both hashed to %s", name, a)
		}
	}
}

// Updates and deletes must each take their own preloaded object outside
// the hot set: that is what keeps clients off each other's keys and the
// point reads at one row.
func TestMixedWriteTargets(t *testing.T) {
	in := genMixed(3, smokeScale, 2, 4000)
	loaded := map[string]bool{}
	for _, k := range in.keys {
		loaded[k] = true
	}
	hot := map[string]bool{}
	for _, s := range in.hot {
		if s.kind == "point" {
			hot[s.text[len(s.text)-9:len(s.text)-1]] = true
		}
	}
	taken := map[string]bool{}
	kinds := map[opKind]int{}
	for _, ops := range in.scripts {
		for _, o := range ops {
			kinds[o.kind]++
			switch o.kind {
			case opUpdate, opDelete:
				if !loaded[o.key] || hot[o.key] || taken[o.key] {
					t.Fatalf("%v targets %s: loaded %v, hot %v, taken before %v", o.kind, o.key, loaded[o.key], hot[o.key], taken[o.key])
				}
				taken[o.key] = true
			case opDupKey:
				if !hot[o.key] && !loaded[o.key] {
					t.Fatalf("duplicate-key insert repeats %s, which was never loaded", o.key)
				}
			case opBadPrice:
				lib, shop := o.mut.Attrs["libprice"].(object.Real), o.mut.Attrs["shopprice"].(object.Real)
				if lib <= shop {
					t.Fatalf("bad-price insert has libprice %v <= shopprice %v", lib, shop)
				}
			}
		}
	}
	for _, k := range []opKind{opExec, opInsert, opUpdate, opDelete, opDupKey, opBadPrice} {
		if kinds[k] == 0 {
			t.Errorf("script holds no op of kind %d", k)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
	} {
		q1, q3 := quartiles(tc.vals)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", tc.vals, q1, q3, tc.q1, tc.q3)
		}
	}
}
