package view

import (
	"maps"
	"math"
	"slices"
	"sort"

	"interopdb/internal/core"
	"interopdb/internal/object"
)

// Index inheritance (DESIGN.md §7.3, §8.4). A delta publication gives
// every class it changes a new classState. Instead of rebuilding that
// state's eq and ordered indexes over the whole extent, the first query
// that needs one derives it from the last fresh build of the same index,
// its base, plus the extent delta between the two versions:
//
//   - publishDeltaLocked hands the new state, per index, the base its
//     predecessor built or inherited (inheritBases). It hands over index
//     values only, never the predecessor classState, so a held snapshot
//     still keeps alive exactly its own class states (§12).
//   - First use walks the base's extent against the new one by pointer
//     (diffExt). Objects reachable from a snapshot are frozen, so the
//     same pointer means the same value, and only the members that left
//     or joined are read.
//   - The derived index, an overlay, answers every probe exactly as a
//     fresh build over the new extent would: the same counts, declines
//     and positions (FuzzInheritedIndex). The cost gate and the access
//     path therefore decide as they always did.
//   - The index is built fresh instead, and that build becomes the next
//     base, when the delta passes foldAt(n) or a joining member breaks
//     the base's ok flag or kind class.

// baseKey names one inheritable index of a class: the eq or the ordered
// index on an attribute.
type baseKey struct {
	attr    string
	ordered bool
}

// base is one inherited fresh build: exactly one of eq and ord is set.
type base struct {
	eq  *eqIndex
	ord *ordIndex
}

// foldAt is the delta (dead plus added positions) past which a class
// version of n members builds an index fresh instead of deriving it:
// max(8, √n).
func foldAt(n int) int {
	return max(8, int(math.Sqrt(float64(n))))
}

// inheritBases collects the bases the republished state of prev
// inherits: per index, the fresh build prev made or, when prev made
// none, the base prev itself inherited. A fresh build that declined
// (not ok) leaves no base: a later version builds fresh too. A base
// keeps alive at most one older extent per index, whatever the number
// of publications since it was built. Caller holds e.mu (write).
func inheritBases(prev *classState) map[baseKey]base {
	out := maps.Clone(prev.bases)
	if out == nil {
		out = map[baseKey]base{}
	}
	prev.eq.Range(func(attr, v any) bool {
		if ix := v.(*eqIndex); ix.ov == nil {
			out[baseKey{attr: attr.(string)}] = base{eq: ix}
		}
		return true
	})
	prev.ord.Range(func(attr, v any) bool {
		if ix := v.(*ordIndex); ix.ov == nil {
			out[baseKey{attr: attr.(string), ordered: true}] = base{ord: ix}
		}
		return true
	})
	maps.DeleteFunc(out, func(_ baseKey, b base) bool {
		return (b.eq != nil && !b.eq.ok) || (b.ord != nil && !b.ord.ok)
	})
	return out
}

// extDelta is how a class version's extent differs from a base extent.
// Between structural publications an extent changes in three ways only:
// a member is cut (order-preserving), replaced in place (an update's
// detached clone keeps its ID and position) or appended. So the
// surviving base members keep their relative order and each moves left
// by the number of members cut before it.
type extDelta struct {
	dead  []int // ascending base positions whose object left: cut or replaced
	cut   []int // ascending base positions cut; later survivors shift left past them
	added []int // ascending positions of the new extent whose object the base lacks
}

// size is the delta's length: dead plus added positions.
func (d *extDelta) size() int { return len(d.dead) + len(d.added) }

// remap maps a base position to its position in the new extent, or -1
// when its object left.
func (d *extDelta) remap(p int) int {
	if _, dead := slices.BinarySearch(d.dead, p); dead {
		return -1
	}
	return p - sort.SearchInts(d.cut, p)
}

// diffExt walks base against ext by pointer and returns their delta, or
// nil once it passes limit. The walk consumes ext in step with base: a
// base member either sits at the next new position (it survived), or
// left. It was replaced when the next new position holds an object with
// its ID, otherwise cut. An object that left the class and came back
// carries its ID into the appended tail; the walk may pair it with a cut
// member then, but only once every surviving base member is behind it,
// so the dead and added sets, and every survivor's position, stay exact.
func diffExt(base, ext []*core.GObj, limit int) *extDelta {
	d := &extDelta{}
	j := 0
	for i, g := range base {
		if j < len(ext) && ext[j] == g {
			j++
			continue
		}
		d.dead = append(d.dead, i)
		if j < len(ext) && ext[j].ID == g.ID {
			d.added = append(d.added, j)
			j++
		} else {
			d.cut = append(d.cut, i)
		}
		if d.size() > limit {
			return nil
		}
	}
	if d.size()+len(ext)-j > limit {
		return nil
	}
	for ; j < len(ext); j++ {
		d.added = append(d.added, j)
	}
	return d
}

// extKey identifies a frozen extent slice: its first element's address
// and its length. Published extents never change below their length, so
// two slices with one key hold the same members.
type extKey struct {
	first **core.GObj
	n     int
}

// deltaFrom returns the delta from a base extent to the class's extent,
// or nil when it passes foldAt. It walks once per base extent: an eq and
// an ordered index built over one version share the walk.
func (cs *classState) deltaFrom(base []*core.GObj) *extDelta {
	key := extKey{n: len(base)}
	if len(base) > 0 {
		key.first = &base[0]
	}
	if v, ok := cs.deltas.Load(key); ok {
		return v.(*extDelta)
	}
	d := diffExt(base, cs.ext, foldAt(len(cs.ext)))
	cs.deltas.Store(key, d)
	return d
}

// eqOverlay is a derived hash index's delta over its base's buckets.
type eqOverlay struct {
	d     *extDelta
	added map[uint64][]int // hash → ascending new positions of added members
	dead  map[uint64]int   // hash → how many of the base's filed entries left
}

// deriveEq derives the class's hash index on the attribute from its
// inherited base, reporting how many values it filed. It returns nil
// when the index must be built fresh: no base, a delta past foldAt, or
// an added member that neither holds nor declares the attribute.
func deriveEq(s *snapshot, cs *classState, attr string) (*eqIndex, int) {
	b := cs.bases[baseKey{attr: attr}].eq
	if b == nil {
		return nil, 0
	}
	d := cs.deltaFrom(b.ext)
	if d == nil {
		return nil, 0
	}
	ov := &eqOverlay{d: d, added: map[uint64][]int{}, dead: map[uint64]int{}}
	for _, p := range d.dead {
		if v, ok := b.ext[p].Get(attr); ok && v.Kind() != object.KindNull {
			ov.dead[object.Hash(v)]++
		}
	}
	filed := 0
	for _, q := range d.added {
		g := cs.ext[q]
		v, ok := g.Get(attr)
		if !ok {
			if !s.declaresAttr(g, attr) {
				return nil, 0
			}
			continue
		}
		if v.Kind() == object.KindNull {
			continue
		}
		h := object.Hash(v)
		ov.added[h] = append(ov.added[h], q)
		filed++
	}
	return &eqIndex{ok: true, pos: b.pos, ov: ov}, filed
}

// bucket merges the base bucket's surviving positions, remapped, with
// the added positions under the same hash: ascending, as a fresh build
// files them.
func (ov *eqOverlay) bucket(base []int, h uint64) []int {
	add := ov.added[h]
	out := make([]int, 0, len(base)+len(add))
	for _, p := range base {
		q := ov.d.remap(p)
		if q < 0 {
			continue
		}
		for len(add) > 0 && add[0] < q {
			out = append(out, add[0])
			add = add[1:]
		}
		out = append(out, q)
	}
	return append(out, add...)
}

// ordOverlay is a derived ordered index's delta over its base's sorted
// entries: a second sorted run holding the added members, and the base
// entries that left, also sorted, which a window's count excludes.
type ordOverlay struct {
	d        *extDelta
	dead     []ordEntry // sorted; positions in the base extent
	extra    []ordEntry // sorted; positions in the new extent
	baseLive int        // base entries still in the extent
	live     int        // baseLive + len(extra)
}

// deriveOrd derives the class's ordered index on the attribute from its
// inherited base, as deriveEq. An added value of another kind class
// than the surviving entries also forces a fresh build.
func deriveOrd(s *snapshot, cs *classState, attr string) (*ordIndex, int) {
	b := cs.bases[baseKey{attr: attr, ordered: true}].ord
	if b == nil {
		return nil, 0
	}
	d := cs.deltaFrom(b.ext)
	if d == nil {
		return nil, 0
	}
	ov := &ordOverlay{d: d}
	for _, p := range d.dead {
		if v, ok := b.ext[p].Get(attr); ok && v.Kind() != object.KindNull {
			ov.dead = append(ov.dead, ordEntry{val: v, pos: p})
		}
	}
	sortOrd(ov.dead)
	ov.baseLive = len(b.entries) - len(ov.dead)
	class := 0
	if ov.baseLive > 0 {
		class = b.class
	}
	filed := 0
	for _, q := range d.added {
		g := cs.ext[q]
		v, ok := g.Get(attr)
		if !ok {
			if !s.declaresAttr(g, attr) {
				return nil, 0
			}
			continue
		}
		if v.Kind() == object.KindNull {
			continue
		}
		kc := kindClass(v)
		if kc == 0 || (class != 0 && kc != class) {
			return nil, 0
		}
		class = kc
		ov.extra = append(ov.extra, ordEntry{val: v, pos: q})
		filed++
	}
	sortOrd(ov.extra)
	ov.live = ov.baseLive + len(ov.extra)
	return &ordIndex{ok: true, class: class, entries: b.entries, ov: ov}, filed
}

// window sets the probe's window on the extra run and returns what the
// overlay adds to the base window's count: the extra entries the bounds
// admit, less the dead base entries they admit.
func (ov *ordOverlay) window(pr *probe) int {
	n := 0
	if ov.baseLive > 0 {
		lo, hi := boundsWindow(ov.dead, pr.lower, pr.upper)
		n -= max(0, hi-lo)
	}
	pr.lo2, pr.hi2 = boundsWindow(ov.extra, pr.lower, pr.upper)
	return n + max(0, pr.hi2-pr.lo2)
}

// positions appends the new positions of the probe's windows: the base
// window's surviving entries, remapped, then the extra run's.
func (ov *ordOverlay) positions(out []int, pr *probe) []int {
	if pr.lo < pr.hi {
		for _, en := range pr.ord.entries[pr.lo:pr.hi] {
			if q := ov.d.remap(en.pos); q >= 0 {
				out = append(out, q)
			}
		}
	}
	if pr.lo2 < pr.hi2 {
		for _, en := range ov.extra[pr.lo2:pr.hi2] {
			out = append(out, en.pos)
		}
	}
	return out
}
