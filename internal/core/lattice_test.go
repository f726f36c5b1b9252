package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mapContainment is the lattice's containment pass as buildLattice and
// recomputeISA computed it before the bitset routine: one ID set per
// class, every ordered pair compared. Kept as the reference the
// property test holds containmentEdges and intersection to.
func mapContainment(v *GlobalView, names []string) (edges []ISAEdge, exts map[string]map[int]bool) {
	exts = map[string]map[int]bool{}
	for _, name := range names {
		m := map[int]bool{}
		for _, g := range v.classExt[name] {
			m[g.ID] = true
		}
		exts[name] = m
	}
	for _, a := range names {
		for _, b := range names {
			if a != b && mapSubset(exts[a], exts[b]) {
				edges = append(edges, ISAEdge{Sub: a, Super: b})
			}
		}
	}
	return edges, exts
}

func mapSubset(a, b map[int]bool) bool {
	if len(a) == 0 || len(a) > len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// mapIntersection is the reference intersection: ascending IDs.
func mapIntersection(a, b map[int]bool) []int {
	var out []int
	for id := range a {
		if b[id] {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// randomLatticeView builds a view of n objects with gapped, ascending
// IDs (as after deletes and attaches) and random extents over them,
// some empty, some equal, some nested, some listing a member twice.
func randomLatticeView(rng *rand.Rand, n, classes int) (*GlobalView, []string) {
	v := &GlobalView{classExt: map[string][]*GObj{}}
	id := 0
	for i := 0; i < n; i++ {
		id += 1 + rng.Intn(1+rng.Intn(200))
		v.Objects = append(v.Objects, &GObj{ID: id})
	}
	var names []string
	for c := 0; c < classes; c++ {
		name := fmt.Sprintf("C%d", c)
		names = append(names, name)
		var ext []*GObj
		switch {
		case len(v.Objects) == 0 || rng.Intn(8) == 0: // empty
		case c > 0 && rng.Intn(3) == 0: // a subset of an earlier class
			for _, g := range v.classExt[names[rng.Intn(c)]] {
				if rng.Intn(4) != 0 {
					ext = append(ext, g)
				}
			}
		default:
			keep := 1 + rng.Intn(4)
			for _, g := range v.Objects {
				if rng.Intn(keep) == 0 {
					ext = append(ext, g)
				}
			}
		}
		if len(ext) > 0 && rng.Intn(5) == 0 {
			ext = append(ext, ext[rng.Intn(len(ext))]) // a repeated member
		}
		rng.Shuffle(len(ext), func(i, j int) { ext[i], ext[j] = ext[j], ext[i] })
		v.classExt[name] = ext
	}
	return v, names
}

// TestLatticeContainmentMatchesMapReference: on random views the
// bitset containment pass yields the map reference's edges in the same
// order, every class pair's intersection in ascending ID order, and
// recomputeISA the reference's lattice with the intersection
// subclasses' parent edges last.
func TestLatticeContainmentMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 300; trial++ {
		v, names := randomLatticeView(rng, rng.Intn(300), 1+rng.Intn(8))
		sets := v.extentSets(names)
		want, exts := mapContainment(v, names)
		if got := containmentEdges(names, sets); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: edges\n%v\nwant\n%v", trial, got, want)
		}
		for _, a := range names {
			for _, b := range names {
				var got []int
				for _, g := range v.intersection(sets[a], sets[b]) {
					got = append(got, g.ID)
				}
				if want := mapIntersection(exts[a], exts[b]); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: %s ∩ %s = %v, want %v", trial, a, b, got, want)
				}
			}
		}
		// The last name plays an intersection subclass: excluded from
		// containment, its two parent edges appended.
		if len(names) >= 3 {
			vs := VirtualSubclass{Name: names[len(names)-1], LocalClass: names[0], RemoteClass: names[1]}
			v.VirtualSubclasses = []VirtualSubclass{vs}
			v.ClassNames = names
			v.recomputeISA()
			want, _ := mapContainment(v, names[:len(names)-1])
			want = append(want, ISAEdge{Sub: vs.Name, Super: vs.RemoteClass}, ISAEdge{Sub: vs.Name, Super: vs.LocalClass})
			if !reflect.DeepEqual(v.ISA, want) {
				t.Fatalf("trial %d: recomputeISA\n%v\nwant\n%v", trial, v.ISA, want)
			}
		}
	}
}
