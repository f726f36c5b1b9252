package core

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"interopdb/internal/object"
)

// cowModel is the map-based reference for one clone's constituents and
// classes: the representation global objects had before Parts and
// Classes became copy-on-write slices, with its semantics.
type cowModel struct {
	parts   map[Side][]*CObj
	classes map[string]bool
}

func modelOf(g *GObj) cowModel {
	m := cowModel{parts: map[Side][]*CObj{}, classes: map[string]bool{}}
	for _, p := range g.Parts {
		m.parts[p.Side] = append(m.parts[p.Side], p)
	}
	for _, c := range g.Classes {
		m.classes[c] = true
	}
	return m
}

func (m cowModel) clone() cowModel {
	out := cowModel{parts: map[Side][]*CObj{}, classes: maps.Clone(m.classes)}
	for s, ps := range m.parts {
		out.parts[s] = slices.Clone(ps)
	}
	return out
}

// check compares a clone with its model: Classes are the model's sorted
// names, Parts its sides in ascending order, each side's parts in the
// order they joined, and the read paths agree.
func (m cowModel) check(t *testing.T, g *GObj, probes []string, when string) {
	t.Helper()
	var want []string
	for c := range m.classes {
		want = append(want, c)
	}
	slices.Sort(want)
	if !slices.Equal(g.Classes, want) {
		t.Fatalf("%s: g%d classes %v, model %v", when, g.ID, g.Classes, want)
	}
	for _, c := range probes {
		if g.InClass(c) != m.classes[c] {
			t.Fatalf("%s: g%d InClass(%s) = %v, model %v", when, g.ID, c, g.InClass(c), m.classes[c])
		}
	}
	var sides []Side
	for s := range m.parts {
		sides = append(sides, s)
	}
	slices.Sort(sides)
	var parts []*CObj
	for _, s := range sides {
		parts = append(parts, m.parts[s]...)
		if got := g.PartsOf(s); !slices.Equal(got, m.parts[s]) {
			t.Fatalf("%s: g%d PartsOf(%d) = %v, model %v", when, g.ID, s, got, m.parts[s])
		}
	}
	if !slices.Equal(g.Parts, parts) {
		t.Fatalf("%s: g%d parts %v, model %v", when, g.ID, g.Parts, parts)
	}
	held := 0
	for _, ps := range m.parts {
		if len(ps) > 0 {
			held++
		}
	}
	if g.Merged() != (held >= 2) {
		t.Fatalf("%s: g%d Merged() = %v over %d sides", when, g.ID, g.Merged(), held)
	}
}

// FuzzGObjCopyOnWrite: a global object's Parts and Classes are never
// written in place once a snapshot can reach it. Over the objects of a
// federated view — built by Merge (class slices carved from a block,
// with spare capacity) and by a graft (its new objects and its host
// clones) — the input draws detachAll batches, clones of clones
// included, and class and part writes on the clones: every clone stays
// equal to a map-based model of the old Parts/Classes semantics, and
// every object a clone replaced renders byte for byte as it did when it
// was replaced.
func FuzzGObjCopyOnWrite(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 3, 2, 0, 1, 3, 0, 2, 4, 0, 1, 5, 0, 0})
	f.Add([]byte{0, 5, 2, 1, 1, 250, 1, 2, 0, 3, 0, 3, 0, 7, 0, 1, 0, 9, 2, 1, 4})
	f.Add([]byte{0, 20, 1, 3, 0, 1, 0, 20, 0, 1, 0, 255, 4, 0, 0, 4, 0, 1, 5, 0, 2, 0, 20, 0, 2, 0, 3})
	f.Add([]byte{0, 30, 2, 2, 0, 0, 2, 0, 2, 2, 0, 4, 2, 0, 6, 5, 1, 0, 5, 1, 1, 0, 31, 0, 1, 1, 0, 3, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fed := newFig1Fed(t, 1)
		fed.attach(t)
		v := fed.fs.Res.View
		pool := append(slices.Clone(v.ClassNames), "", "AAA", "Mid", "zzz")
		frozen := map[*GObj]string{}
		for _, g := range v.Objects {
			frozen[g] = objectLine(g)
		}
		models := map[*GObj]cowModel{} // live clone → its model
		var clones []*GObj             // in the order they were made
		nextSrc := 0
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		for len(data) > 0 {
			op, a, b := next()%6, next(), next()
			if op == 0 || len(clones) == 0 {
				// Clone a batch of 1-3 consecutive live objects.
				var batch []*GObj
				for i := range 1 + b%3 {
					batch = append(batch, v.Objects[(a+i)%len(v.Objects)])
				}
				cloned := v.detachAll(batch)
				for _, orig := range batch {
					clone, ok := cloned[orig]
					if _, seen := models[clone]; !ok || seen {
						continue // a repeat within the batch
					}
					frozen[orig] = objectLine(orig)
					m, ok := models[orig]
					if ok {
						delete(models, orig)
					} else {
						m = modelOf(orig)
					}
					if len(orig.Classes) > 0 && (&clone.Classes[0] != &orig.Classes[0] || cap(clone.Classes) != len(clone.Classes)) {
						t.Fatalf("clone of g%d does not share its classes, clipped", orig.ID)
					}
					if len(orig.Parts) > 0 && (&clone.Parts[0] != &orig.Parts[0] || cap(clone.Parts) != len(clone.Parts)) {
						t.Fatalf("clone of g%d does not share its parts, clipped", orig.ID)
					}
					models[clone] = m.clone()
					clones = append(clones, clone)
					models[clone].check(t, clone, pool, "clone")
				}
				continue
			}
			g := clones[a%len(clones)]
			m, live := models[g]
			if !live {
				continue // since replaced by a clone of its own
			}
			var when string
			switch op {
			case 1:
				c := pool[b%len(pool)]
				if got, want := g.addClass(c), !m.classes[c]; got != want {
					t.Fatalf("g%d addClass(%q) = %v, model %v", g.ID, c, got, want)
				}
				m.classes[c] = true
				when = "addClass " + c
			case 2:
				// One or two names, each a class the clone holds or one
				// from the pool.
				var names []string
				for k := range 1 + b%2 {
					c := pool[(b+k)%len(pool)]
					if (b>>k)%4 < 2 && len(g.Classes) > 0 {
						c = g.Classes[(b/4+k)%len(g.Classes)]
					}
					if !slices.Contains(names, c) {
						names = append(names, c)
					}
				}
				want := 0
				for _, c := range names {
					if m.classes[c] {
						want++
					}
					delete(m.classes, c)
				}
				if got := g.dropClasses(names...); got != want {
					t.Fatalf("g%d dropClasses(%q) = %d, model %d", g.ID, names, got, want)
				}
				when = fmt.Sprintf("dropClasses %q", names)
			case 3:
				nextSrc++
				p := &CObj{Src: object.Ref{DB: "fuzz", OID: object.OID(nextSrc)}, Side: Side(b % 4)}
				g.addPart(p)
				m.parts[p.Side] = append(m.parts[p.Side], p)
				when = fmt.Sprintf("addPart side %d", p.Side)
			case 4:
				side := Side(b % 4)
				if got, want := g.dropSide(side), m.parts[side]; !slices.Equal(got, want) {
					t.Fatalf("g%d dropSide(%d) = %v, model %v", g.ID, side, got, want)
				}
				delete(m.parts, side)
				when = fmt.Sprintf("dropSide %d", side)
			case 5:
				src := object.Ref{DB: "fuzz", OID: 0} // held by no part
				if len(g.Parts) > 0 && b%4 != 0 {
					src = g.Parts[b%len(g.Parts)].Src
				}
				had := false
				for s, ps := range m.parts {
					if i := slices.IndexFunc(ps, func(p *CObj) bool { return p.Src == src }); i >= 0 {
						m.parts[s] = slices.Delete(slices.Clone(ps), i, i+1)
						had = true
						break
					}
				}
				if got := g.dropPart(src); got != had {
					t.Fatalf("g%d dropPart(%s) = %v, model %v", g.ID, src, got, had)
				}
				when = "dropPart " + src.String()
			}
			m.check(t, g, pool, when)
		}
		for g, was := range frozen {
			if now := objectLine(g); now != was {
				t.Fatalf("replaced g%d was written after its clone was made:\n  was %s\n  now %s", g.ID, was, now)
			}
		}
	})
}
