package core

import (
	"maps"
	"sort"

	"interopdb/internal/object"
)

// AttrDict is a global view's attribute dictionary: every attribute name
// the view's objects may hold, each at a fixed slot. A global object
// stores its values in a slice indexed by slot, so a column kernel
// resolves a name once, at plan time, and indexes every object by it.
//
// A dictionary is append-only and never changed once an object or a
// snapshot can reach it: growing it copies it (with), so a reader
// holding an older dictionary, or an object built on one, keeps exactly
// what it saw. A name keeps its slot in every later copy and no slot is
// ever reused — a departing member's names stay — so a slot resolved
// against one copy reads the right value from an object built on any
// other copy of the same view (a slot past the object's values is an
// absent attribute).
type AttrDict struct {
	slot  map[string]int
	names []string
}

// Slot returns the slot of an attribute name.
func (d *AttrDict) Slot(name string) (int, bool) {
	if d == nil {
		return 0, false
	}
	s, ok := d.slot[name]
	return s, ok
}

// Name returns the attribute name of a slot.
func (d *AttrDict) Name(slot int) string { return d.names[slot] }

// Len returns the number of slots.
func (d *AttrDict) Len() int {
	if d == nil {
		return 0
	}
	return len(d.names)
}

// with returns d extended by the names it lacks, in the order given: d
// itself when it has them all, otherwise one copy holding every new name.
func (d *AttrDict) with(names ...string) *AttrDict {
	next := d
	for _, name := range names {
		if _, ok := next.Slot(name); ok {
			continue
		}
		if next == d {
			n := d.Len()
			next = &AttrDict{slot: make(map[string]int, n+len(names)), names: make([]string, n, n+len(names))}
			if d != nil {
				maps.Copy(next.slot, d.slot)
				copy(next.names, d.names)
			}
		}
		next.slot[name] = len(next.names)
		next.names = append(next.names, name)
	}
	return next
}

// withSorted is with over the keys of an attribute map, in sorted order
// (slot assignment stays deterministic).
func (d *AttrDict) withSorted(attrs map[string]object.Value) *AttrDict {
	var missing []string
	for name := range attrs {
		if _, ok := d.Slot(name); !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return d
	}
	sort.Strings(missing)
	return d.with(missing...)
}

// Dict returns the view's current attribute dictionary. It is
// immutable: a later change to the view replaces it with an extended
// copy, so a caller may keep it (a snapshot resolves its column
// slots against the copy it captured).
func (v *GlobalView) Dict() *AttrDict { return v.dict }

// slotted holds an object's attribute values by slot of dict, the
// dictionary the object was built on or last written through; nil marks
// an absent attribute. Global objects slot by their view's dictionary,
// conformed objects by their Conformed's. Read the values with Get, At
// or Range.
type slotted struct {
	dict *AttrDict
	vals []object.Value
}

// Get implements expr.Object: one dictionary lookup, then an index.
func (o *slotted) Get(attr string) (object.Value, bool) {
	s, ok := o.dict.Slot(attr)
	if !ok {
		return nil, false
	}
	return o.At(s)
}

// At returns the value in a slot of the object's dictionary. A slot past
// the object's values, like an empty one, is an absent attribute.
func (o *slotted) At(slot int) (object.Value, bool) {
	if slot >= len(o.vals) {
		return nil, false
	}
	v := o.vals[slot]
	return v, v != nil
}

// Range calls fn for every attribute the object holds, in slot order.
func (o *slotted) Range(fn func(name string, v object.Value)) {
	for s, v := range o.vals {
		if v != nil {
			fn(o.dict.names[s], v)
		}
	}
}

// Attrs returns a fresh map of the attributes the object holds.
func (o *slotted) Attrs() map[string]object.Value {
	n := 0
	for _, v := range o.vals {
		if v != nil {
			n++
		}
	}
	out := make(map[string]object.Value, n)
	o.Range(func(name string, v object.Value) { out[name] = v })
	return out
}

// put stores a value (nil removes the attribute) in a slot of d, which
// the object adopts: d extends the dictionary the object was built on,
// so its other slots keep their meaning. Only an object no snapshot can
// reach may be written.
func (o *slotted) put(d *AttrDict, slot int, val object.Value) {
	o.dict = d
	if slot >= len(o.vals) {
		if val == nil {
			return
		}
		o.vals = append(o.vals, make([]object.Value, slot+1-len(o.vals))...)
	}
	o.vals[slot] = val
}

// set stores a value under a name. A name the object's dictionary lacks
// extends it by one copy that the object adopts, so Get reads the value
// back whatever dictionary the object was built on.
func (o *slotted) set(name string, val object.Value) {
	d := o.dict
	s, ok := d.Slot(name)
	if !ok {
		if val == nil {
			return
		}
		d = d.with(name)
		s = d.slot[name]
	}
	o.put(d, s, val)
}

// setAttr stores a value under a name the view's dictionary holds.
func (v *GlobalView) setAttr(g *GObj, name string, val object.Value) {
	s, ok := v.dict.Slot(name)
	if !ok {
		panic("core: attribute " + name + " is not in the view's dictionary")
	}
	g.put(v.dict, s, val)
}

// newObjectAttrs builds a fresh object's values from an attribute map,
// extending the view's dictionary (one copy) by any name it lacks.
func (v *GlobalView) newObjectAttrs(g *GObj, attrs map[string]object.Value) {
	v.dict = v.dict.withSorted(attrs)
	top := -1
	for name := range attrs {
		top = max(top, v.dict.slot[name])
	}
	g.dict = v.dict
	g.vals = make([]object.Value, top+1)
	for name, val := range attrs {
		g.vals[v.dict.slot[name]] = val
	}
}

// copyAttrs gives a fresh object the values of an object of another view
// (a pair integration's, grafted on attach), re-slotted by this view's
// dictionary, which must already hold their names.
func (v *GlobalView) copyAttrs(g, from *GObj) {
	top := -1
	from.Range(func(name string, _ object.Value) {
		top = max(top, v.dict.slot[name])
	})
	g.dict = v.dict
	g.vals = make([]object.Value, top+1)
	from.Range(func(name string, val object.Value) {
		g.vals[v.dict.slot[name]] = val
	})
}
