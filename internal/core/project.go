package core

import (
	"slices"

	"interopdb/internal/object"
)

// projMemoCap is how many select lists an object remembers its
// projection onto; a further list drops the oldest.
const projMemoCap = 4

// projection is one memoised projection: the select list, owned by the
// memo, and the row built for it.
type projection struct {
	sel []string
	row map[string]object.Value
}

// projMemo is an object's memo of projections, oldest first. A published
// memo is never changed: Project replaces it whole.
type projMemo struct {
	n    int
	ents [projMemoCap]projection
}

// lookup returns the memoised row for a select list with the same
// contents as sel.
func (m *projMemo) lookup(sel []string) (map[string]object.Value, bool) {
	if m == nil {
		return nil, false
	}
	for i := range m.n {
		if slices.Equal(m.ents[i].sel, sel) {
			return m.ents[i].row, true
		}
	}
	return nil, false
}

// with returns a new memo holding m's entries and p, dropping the oldest
// entry when m is full.
func (m *projMemo) with(p projection) *projMemo {
	next := &projMemo{}
	if m != nil {
		keep := m.ents[:m.n]
		if m.n == projMemoCap {
			keep = keep[1:]
		}
		next.n = copy(next.ents[:], keep)
	}
	next.ents[next.n] = p
	next.n++
	return next
}

// Project returns the object's row for a select list: the values of the
// listed attributes the object has, or every attribute it holds when
// sel is empty, read from its slots into a fresh map. The row is built
// once per select list and shared by every later call with an equal
// list, so callers must not modify it.
// That is sound because an object reachable from a published snapshot
// is frozen (detach.go): a write goes to a clone, which starts with an
// empty memo. Project is safe for concurrent use; sel is copied, so the
// caller may reuse it afterwards.
func (g *GObj) Project(sel []string) map[string]object.Value {
	memo := g.proj.Load()
	if row, ok := memo.lookup(sel); ok {
		return row
	}
	row := g.project(sel)
	p := projection{sel: slices.Clone(sel), row: row}
	for !g.proj.CompareAndSwap(memo, memo.with(p)) {
		memo = g.proj.Load()
		if won, ok := memo.lookup(sel); ok {
			return won
		}
	}
	return row
}

// project builds a fresh row for a select list (see Project).
func (g *GObj) project(sel []string) map[string]object.Value {
	if len(sel) == 0 {
		return g.Attrs()
	}
	row := make(map[string]object.Value, len(sel))
	for _, a := range sel {
		if v, ok := g.Get(a); ok {
			row[a] = v
		}
	}
	return row
}
