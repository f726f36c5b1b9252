package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"interopdb/internal/fixture"
	"interopdb/internal/object"
	"interopdb/internal/tm"
)

// fuseFuzzExtra are attribute names no Figure 1 class declares: a
// constituent holding one carries a name outside its class, and one
// missing from its Conformed's dictionary extends its own copy.
var fuseFuzzExtra = []string{"shelfmark", "zz"}

// fuseFuzzValues is the pool fuzzed attribute values are drawn from:
// numbers of both kinds (signed zero included), strings, sets and a
// reference, so every decision function meets values it combines and
// values it passes through.
var fuseFuzzValues = []object.Value{
	object.Int(3), object.Int(8), object.Real(math.Copysign(0, -1)), object.Real(4.5),
	object.Str("IEEE"), object.Str("ACM"),
	object.NewSet(object.Str("Lomet")), object.NewSet(object.Str("Lomet"), object.Str("Chandra")),
	object.Ref{DB: "Bookseller", OID: 1},
}

// referenceFuse is fusion as §2.3 states it, per object: the sorted
// union of the names the parts hold; per name the first non-null value
// on each side; the decision function of the property equivalence
// covering the supplying local part (any without one) when both sides
// have a value.
func referenceFuse(v *GlobalView, parts []*CObj, rng *rand.Rand) map[string]object.Value {
	var names []string
	for _, m := range parts {
		m.Range(func(name string, _ object.Value) {
			if !slices.Contains(names, name) {
				names = append(names, name)
			}
		})
	}
	sort.Strings(names)
	first := func(side Side, name string) (object.Value, *CObj) {
		for _, m := range parts {
			if val, ok := m.Get(name); ok && m.Side == side && val.Kind() != object.KindNull {
				return val, m
			}
		}
		return nil, nil
	}
	out := map[string]object.Value{}
	for _, name := range names {
		lv, lm := first(LocalSide, name)
		rv, _ := first(RemoteSide, name)
		val := lv
		switch {
		case lv != nil && rv != nil:
			var df DecisionFunc = anyFunc{}
			if pe := v.propEqByConformed(name, lm); pe != nil {
				df = pe.DF
			}
			val = df.Combine(lv, rv, rng)
		case lv == nil:
			val = rv
		}
		if val != nil {
			out[name] = val
		}
	}
	return out
}

// FuzzFusePlan: Merge's compiled fusion plans fuse every group as the
// per-object reference does, and draw from the decision functions' rng
// exactly as often. Each input is a run of groups of conformed objects
// of the repaired Figure 1 classes, both sides, virtual class included,
// each part holding a random subset of its Conformed's names — nulls,
// names outside its class and names outside the dictionary included —
// over values widths that differ within a class. One fuser serves the
// whole run, so later groups reuse the plans earlier ones compiled.
func FuzzFusePlan(f *testing.F) {
	local, remote := fixture.Figure1Stores(fixture.Options{})
	spec, err := Compile(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired())
	if err != nil {
		f.Fatal(err)
	}
	c, err := Conform(spec, local, remote)
	if err != nil {
		f.Fatal(err)
	}
	classes := [2][]string{c.LocalSchema.ClassNames(), c.RemoteSchema.ClassNames()}
	names := append(slices.Clone(c.dict.names), fuseFuzzExtra...)
	f.Add([]byte{1, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{2, 0, 1, 13, 2, 3, 1, 0, 2, 2, 2, 2, 2, 2, 2, 0, 0, 1, 1, 3, 13, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Add([]byte{3, 1, 4, 9, 6, 7, 8, 9, 10, 11, 1, 2, 3, 0, 5, 12, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26})
	f.Add([]byte{4, 0, 2, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		v := &GlobalView{Conformed: c}
		v.dict = v.schemaDict()
		planRNG, refRNG := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1))
		fu := newFuser(v, planRNG)
		for groups := 1 + next()%8; groups > 0 && len(data) > 0; groups-- {
			var parts []*CObj
			for n := 1 + next()%4; n > 0; n-- {
				side := Side(next() % 2)
				class := classes[side][next()%len(classes[side])]
				m := &CObj{
					Side: side, Class: class, Virtual: slices.Contains(c.VirtualClasses[side], class),
					slotted: slotted{dict: c.dict, vals: make([]object.Value, next()%(c.dict.Len()+1))},
				}
				for _, name := range names {
					switch r := next(); {
					case r%4 == 0: // absent
					case r%4 == 1:
						m.set(name, object.Null{})
					default:
						m.set(name, fuseFuzzValues[(r/4)%len(fuseFuzzValues)])
					}
				}
				parts = append(parts, m)
			}
			// A Merge group lists its local parts first.
			slices.SortStableFunc(parts, func(a, b *CObj) int { return int(a.Side) - int(b.Side) })
			nLocal := 0
			for nLocal < len(parts) && parts[nLocal].Side == LocalSide {
				nLocal++
			}
			want := referenceFuse(v, parts, refRNG)
			g := &GObj{}
			fu.fuse(g, parts, nLocal)
			if got := g.Attrs(); !reflect.DeepEqual(got, want) {
				t.Fatalf("parts %v:\nplan fused      %v\nreference fused %v", parts, got, want)
			}
		}
		if planRNG.Int63() != refRNG.Int63() {
			t.Fatal("the plans and the reference drew from rng a different number of times")
		}
	})
}

// TestFusePlansPerShape is the count half of the fusion-plan guard,
// reading no clock: merging the repaired Figure 1 pair compiles one plan
// per constituent shape, as many at Scale 1000 as at Scale 10 (9), and
// Merge's allocations per global object do not grow with the extent.
// At Scale 1000 Merge made 16.2 allocations per global object with
// per-object fusion and 7.8 with the plans; the bound is 10.
func TestFusePlansPerShape(t *testing.T) {
	const bound = 10.0
	merge := func(scale int) (plans int, allocsPerObject float64) {
		local, remote := fixture.Figure1Stores(fixture.Options{Scale: scale})
		spec, err := Compile(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired())
		if err != nil {
			t.Fatal(err)
		}
		c, err := Conform(spec, local, remote)
		if err != nil {
			t.Fatal(err)
		}
		v, err := Merge(c)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Merge(c); err != nil {
				t.Fatal(err)
			}
		})
		return v.fusePlans, allocs / float64(len(v.Objects))
	}
	smallPlans, small := merge(10)
	largePlans, large := merge(1000)
	if smallPlans != largePlans {
		t.Errorf("Merge compiled %d fusion plans at Scale 10 but %d at Scale 1000: a plan per shape does not grow with the extent", smallPlans, largePlans)
	}
	if large > small {
		t.Errorf("Merge makes %.2f allocations per global object at Scale 1000, more than the %.2f at Scale 10", large, small)
	}
	if large > bound {
		t.Errorf("Merge makes %.2f allocations per global object at Scale 1000, bound %.0f", large, bound)
	}
}
