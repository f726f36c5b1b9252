package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"interopdb/internal/object"
)

// GObj is a global (integrated) object: the merge of an equivalence class
// of conformed objects, with property values determined by the decision
// functions.
//
// Parts and Classes are copy-on-write slices (DESIGN.md §8.6): once a
// snapshot can reach the object, neither is written in place. A clone
// (detachAll) shares both, clipped to their length, and the object it
// was taken from is never written again. addClass and addPart insert
// through slices.Insert, which writes in place only into spare capacity
// and reallocates a full slice, so a clone's first insert builds its
// own; dropClasses, dropSide and dropPart always build a new slice.
type GObj struct {
	ID int
	// Parts holds the object's constituents in ascending Side order,
	// each tagged with its side (CObj.Side); within a side, in the order
	// they joined. PartsOf returns one side's run.
	Parts []*CObj
	// slotted holds the object's attribute values by slot of the view
	// dictionary it was built on or last written through (slots.go).
	slotted
	// Classes holds the global class names the object belongs to,
	// sorted. InClass answers membership.
	Classes []string

	// proj memoises the object's projections onto recent select lists
	// (project.go). A clone or a new object starts without one.
	proj atomic.Pointer[projMemo]
}

// Identity implements expr.Identifiable.
func (g *GObj) Identity() object.Ref {
	return object.Ref{DB: "global", OID: object.OID(g.ID)}
}

// InClass reports whether the object belongs to the global class.
func (g *GObj) InClass(name string) bool {
	_, ok := slices.BinarySearch(g.Classes, name)
	return ok
}

// PartsOf returns the object's constituents from one member side, in
// the order they joined. The result is clipped: appending to it never
// writes into the object.
func (g *GObj) PartsOf(side Side) []*CObj {
	lo, hi := g.sideRun(side)
	return g.Parts[lo:hi:hi]
}

// sideRun returns the bounds of one side's run in Parts.
func (g *GObj) sideRun(side Side) (lo, hi int) {
	for lo < len(g.Parts) && g.Parts[lo].Side < side {
		lo++
	}
	hi = lo
	for hi < len(g.Parts) && g.Parts[hi].Side == side {
		hi++
	}
	return lo, hi
}

// Merged reports whether the object has constituents in at least two
// member databases (the two sides of a pairwise integration, any pair of
// members in a federated view).
func (g *GObj) Merged() bool {
	n := len(g.Parts)
	return n > 0 && g.Parts[0].Side != g.Parts[n-1].Side
}

// String renders the object.
func (g *GObj) String() string {
	var keys []string
	g.Range(func(k string, _ object.Value) { keys = append(keys, k) })
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		v, _ := g.Get(k)
		parts[i] = k + "=" + v.String()
	}
	return fmt.Sprintf("g%d{%s}(%s)", g.ID, strings.Join(g.Classes, ","), strings.Join(parts, ","))
}

// addClass adds the object to a class, keeping Classes sorted, and
// reports whether it was not a member before.
func (g *GObj) addClass(name string) bool {
	i, found := slices.BinarySearch(g.Classes, name)
	if found {
		return false
	}
	g.Classes = slices.Insert(g.Classes, i, name)
	return true
}

// dropClasses removes the object from the named classes, building one
// new slice, and returns how many it was a member of.
func (g *GObj) dropClasses(names ...string) int {
	if len(names) == 0 {
		return 0
	}
	kept := make([]string, 0, len(g.Classes))
	for _, c := range g.Classes {
		if !slices.Contains(names, c) {
			kept = append(kept, c)
		}
	}
	n := len(g.Classes) - len(kept)
	if n > 0 {
		g.Classes = kept
	}
	return n
}

// addPart appends a constituent to the end of its side's run.
func (g *GObj) addPart(m *CObj) {
	i := len(g.Parts)
	for i > 0 && g.Parts[i-1].Side > m.Side {
		i--
	}
	g.Parts = slices.Insert(g.Parts, i, m)
}

// dropSide removes every constituent from one side, building a new
// slice, and returns them.
func (g *GObj) dropSide(side Side) []*CObj {
	lo, hi := g.sideRun(side)
	if lo == hi {
		return nil
	}
	run := g.Parts[lo:hi:hi]
	g.Parts = slices.Concat(g.Parts[:lo:lo], g.Parts[hi:])
	return run
}

// dropPart removes the constituent with the source reference, building a
// new slice, and reports whether the object had one.
func (g *GObj) dropPart(src object.Ref) bool {
	i := slices.IndexFunc(g.Parts, func(m *CObj) bool { return m.Src == src })
	if i < 0 {
		return false
	}
	g.Parts = slices.Concat(g.Parts[:i:i], g.Parts[i+1:])
	return true
}

// block hands out slices carved from shared chunks, so objects built in
// bulk cost no allocation of their own for their classes, parts or
// values. Each slice is clipped to its capacity: a write past it
// reallocates instead of reaching the next object's elements. A chunk
// lives as long as any slice carved from it.
type block[T any] struct{ buf []T }

// take returns an empty slice with capacity n.
func (b *block[T]) take(n int) []T {
	if cap(b.buf)-len(b.buf) < n {
		b.buf = make([]T, 0, max(n, 1024))
	}
	lo := len(b.buf)
	b.buf = b.buf[:lo+n]
	return b.buf[lo : lo : lo+n]
}
