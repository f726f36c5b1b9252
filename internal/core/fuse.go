package core

import (
	"encoding/binary"
	"math/rand"
	"sort"

	"interopdb/internal/object"
)

// Fusion (§2.3): "the value of global properties is determined from the
// conformed local and remote ones, using a decision function where
// applicable". Which names a group of constituents can carry, where each
// constituent holds each one, and which decision function settles it
// are facts of the constituents' classes, not of the objects. Merge
// therefore compiles one fusePlan per shape — the (side, class, virtual
// mark, dictionary, width) of each part, in group order — and applies
// it to every group of that shape.

// partKind is what a fusion plan depends on of one constituent. width is
// the length of its values: every value it holds sits below it, so the
// plan covers them all, whatever names the object carries.
type partKind struct {
	side    Side
	class   string
	virtual bool
	dict    *AttrDict
	width   int
}

// fuseTarget is one global attribute of a fusion plan: its view slot,
// the slot each part holds it in (-1: the part cannot hold it), and the
// decision function that settles it when local part i supplies the
// local value.
type fuseTarget struct {
	slot int
	src  []int
	df   []DecisionFunc
}

// fusePlan fuses groups of one shape, local parts first. Its targets are
// every name a part's slots can hold, in sorted name order, the order
// the decision functions draw from rng in.
type fusePlan struct {
	targets []fuseTarget
	width   int // one past the highest target slot
}

// fuser compiles and applies Merge's fusion plans.
type fuser struct {
	v     *GlobalView
	rng   *rand.Rand
	kinds map[partKind]int
	plans map[string]*fusePlan
	// key is the shape key under construction: each part's kind number.
	key []byte
}

func newFuser(v *GlobalView, rng *rand.Rand) *fuser {
	return &fuser{v: v, rng: rng, kinds: map[partKind]int{}, plans: map[string]*fusePlan{}}
}

// plan returns the fusion plan of a group's shape, compiling it on the
// shape's first group.
func (f *fuser) plan(parts []*CObj, nLocal int) *fusePlan {
	f.key = f.key[:0]
	for _, m := range parts {
		k := partKind{m.Side, m.Class, m.Virtual, m.dict, len(m.vals)}
		n, ok := f.kinds[k]
		if !ok {
			n = len(f.kinds)
			f.kinds[k] = n
		}
		f.key = binary.AppendUvarint(f.key, uint64(n))
	}
	if p, ok := f.plans[string(f.key)]; ok {
		return p
	}
	p := f.v.compileFuse(parts, nLocal)
	f.plans[string(f.key)] = p
	return p
}

// compileFuse builds the fusion plan of a group's shape, extending the
// view's dictionary (one copy) by any name it lacks.
func (v *GlobalView) compileFuse(parts []*CObj, nLocal int) *fusePlan {
	seen := map[string]bool{}
	var names []string
	for _, m := range parts {
		for s := range len(m.vals) {
			if name := m.dict.names[s]; !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	v.dict = v.dict.with(names...)
	p := &fusePlan{targets: make([]fuseTarget, len(names))}
	src := make([]int, len(names)*len(parts))
	dfs := make([]DecisionFunc, len(names)*nLocal)
	for i, name := range names {
		t := &p.targets[i]
		t.slot = v.dict.slot[name]
		p.width = max(p.width, t.slot+1)
		t.src = src[i*len(parts) : (i+1)*len(parts)]
		for j, m := range parts {
			t.src[j] = -1
			if s, ok := m.dict.Slot(name); ok && s < len(m.vals) {
				t.src[j] = s
			}
		}
		t.df = dfs[i*nLocal : (i+1)*nLocal]
		for j := range nLocal {
			// No declared equivalence: same-named attributes without a
			// propeq behave like conflict-ignoring (documented).
			t.df[j] = anyFunc{}
			if pe := v.propEqByConformed(name, parts[j]); pe != nil {
				t.df[j] = pe.DF
			}
		}
	}
	return p
}

// fuse sets a new global object's values from its group's parts (local
// parts first, nLocal of them): per target, the first non-null value of
// each side, settled by the decision function when both sides have one.
func (f *fuser) fuse(g *GObj, parts []*CObj, nLocal int) {
	p := f.plan(parts, nLocal)
	vals := make([]object.Value, p.width)
	top := -1
	for i := range p.targets {
		t := &p.targets[i]
		li, lv := firstValue(parts[:nLocal], t.src[:nLocal])
		_, rv := firstValue(parts[nLocal:], t.src[nLocal:])
		val := lv
		switch {
		case lv != nil && rv != nil:
			val = t.df[li].Combine(lv, rv, f.rng)
		case lv == nil:
			val = rv
		}
		if val != nil {
			vals[t.slot] = val
			top = max(top, t.slot)
		}
	}
	g.dict = f.v.dict
	g.vals = vals[:top+1]
}

// firstValue returns the first part holding a non-null value in its
// slot, and the value; (-1, nil) when none does.
func firstValue(parts []*CObj, src []int) (int, object.Value) {
	for i, s := range src {
		if s < 0 {
			continue
		}
		if val := parts[i].vals[s]; val != nil && val.Kind() != object.KindNull {
			return i, val
		}
	}
	return -1, nil
}

// propEqByConformed finds the property equivalence whose conformed name
// matches and whose local class covers the given constituent.
func (v *GlobalView) propEqByConformed(name string, localPart *CObj) *PropEq {
	for _, pe := range v.Conformed.Spec.PropEqs {
		if pe.Conformed != name {
			continue
		}
		db := v.Conformed.Spec.Local.Schema
		if localPart.Virtual || db.IsA(localPart.Class, pe.Raw.LocalClass) || db.IsA(pe.Raw.LocalClass, localPart.Class) {
			return pe
		}
	}
	return nil
}
