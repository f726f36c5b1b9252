package core

import (
	"maps"
	"slices"

	"interopdb/internal/object"
)

// Snapshot support: the view engine serves queries from immutable
// copy-on-write snapshots of the integrated view (DESIGN.md §8), which
// requires that an object reachable from a published snapshot is never
// mutated again. The helpers here give the engine what it needs to keep
// that promise: detachAll swaps fresh clones into the live view before
// anything mutates them (readers of older snapshots keep the frozen
// originals) — DetachForUpdate is its batch of one, a graft or a
// retraction (federation.go) hands it everything it is about to touch —
// and RefsCopy/RefsOf expose the reference table so the engine can fork
// or extend its snapshot-local deref map.

// DetachForUpdate replaces g with a fresh clone everywhere the live view
// references it and returns the clone, so a subsequent ApplyUpdate on
// the clone leaves the original byte-for-byte intact for readers still
// holding it. An object not (or no longer) part of the view is returned
// unchanged.
func (v *GlobalView) DetachForUpdate(g *GObj) *GObj {
	if clone, ok := v.detachAll([]*GObj{g})[g]; ok {
		return clone
	}
	return g
}

// detachAll replaces every live object of the batch with a fresh clone
// everywhere the view references it — the object list, every class
// extent, and the reference table (global identity and constituent
// sources) — and returns the original → clone map; objects not (or no
// longer) part of the view have no entry. A clone gets its own copy of
// the attribute values (a slice copy) and of the class map, and shares
// the constituent pointers, which no snapshot reader ever dereferences.
// The batch costs what it touches: a binary search of the ID-ordered
// object list per object, and ONE pass over each extent holding any of
// them, which keeps its order and stops once the extent's share of the
// batch is swapped.
func (v *GlobalView) detachAll(batch []*GObj) map[*GObj]*GObj {
	clones := make(map[*GObj]*GObj, len(batch))
	share := map[string]int{} // class → how many of the batch its extent holds
	for _, g := range batch {
		// Also skips a repeat: its identity already resolves to the clone.
		if cur, ok := v.byRef[g.Identity()]; !ok || cur != g {
			continue
		}
		clone := &GObj{
			ID:      g.ID,
			Parts:   make(map[Side][]*CObj, len(g.Parts)),
			slotted: slotted{dict: g.dict, vals: slices.Clone(g.vals)},
			Classes: maps.Clone(g.Classes),
		}
		for side, ms := range g.Parts {
			clone.Parts[side] = slices.Clone(ms)
		}
		for c := range g.Classes {
			share[c]++
		}
		clones[g] = clone
		if i, ok := v.position(g); ok {
			v.Objects[i] = clone
		}
		v.byRef[g.Identity()] = clone
		for _, ms := range g.Parts {
			for _, m := range ms {
				if cur, ok := v.byRef[m.Src]; ok && cur == g {
					v.byRef[m.Src] = clone
				}
			}
		}
	}
	for cls, left := range share {
		ext := v.classExt[cls]
		for i := 0; i < len(ext) && left > 0; i++ {
			if clone, ok := clones[ext[i]]; ok {
				ext[i] = clone
				left--
			}
		}
	}
	return clones
}

// RefsCopy returns a copy of the reference table (global identities and
// constituent sources → global objects). Snapshot publication forks its
// deref map from it after updates or deletes changed existing entries.
func (v *GlobalView) RefsCopy() map[object.Ref]*GObj {
	out := make(map[object.Ref]*GObj, len(v.byRef))
	for r, g := range v.byRef {
		out[r] = g
	}
	return out
}

// RefsOf lists the reference-table keys that resolve to the object: its
// global identity plus every constituent source reference. Snapshot
// publication uses it to extend the deref map after pure inserts without
// forking it.
func (v *GlobalView) RefsOf(g *GObj) []object.Ref {
	out := []object.Ref{g.Identity()}
	for _, ms := range g.Parts {
		for _, m := range ms {
			if cur, ok := v.byRef[m.Src]; ok && cur == g {
				out = append(out, m.Src)
			}
		}
	}
	return out
}
