package view

import (
	"maps"
	"sync"
	"sync/atomic"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/logic"
	"interopdb/internal/object"
)

// Snapshot serving (DESIGN.md §8, §12): the engine publishes an
// immutable snapshot of the integrated view — per class a frozen extent
// slice, lazily built extent indexes and the plan cache; a frozen deref
// map — through an atomic pointer. Run loads the current snapshot and
// serves entirely from it, so reads never take e.mu and never touch the
// live view. Ship, Reconcile and Rebind mutate the live view under the
// write lock and publish before releasing it: whenever e.mu is free, the
// published snapshot equals the live view.
//
// Publication is per class: a snapshot maps each global class to its
// frozen classState, and nothing writes that map once it is published.
// A writer to class A clones the map and replaces A's state alone — B's
// extent, indexes and cached plans carry over by pointer, and readers of
// B never observe an invalidation. A reader holding a snapshot keeps
// exactly that snapshot's class states alive; the garbage collector
// reclaims a retired state once no held snapshot maps it.
//
// The freeze contract the copy-on-write publication relies on:
//
//   - extent slices in a class state are private to the publication
//     path, so in-place splices on the live view cannot reach them; a
//     pure-insert publication APPENDS to the previous state's slice
//     (the new objects land beyond every published length, so older
//     states sharing the backing array never see them), amortising
//     the copy-on-write cost that used to tax singleton inserts;
//   - objects reachable from a snapshot are never mutated: updates go
//     through core.DetachForUpdate, which swaps a fresh clone into the
//     live view and leaves the original frozen; deletes splice the
//     object out without touching it; inserts create new objects;
//   - the deref map is a frozen base plus a side table of per-ref
//     chains that every publication since the last fold appends to
//     (refTable below): an update or delete records what the refs of
//     its target resolve to now, an insert the refs of the new object,
//     and older snapshots skip the entries newer than themselves.

// refTable is a snapshot's deref map: a frozen base copied from the
// live view's reference table, plus a side table shared with every
// newer snapshot until the next fold. The side table holds, per ref, a
// chain of entries ordered by the publication sequence that recorded
// them: what the ref resolved to after that publication, nil when it
// stopped resolving (its object was deleted). A snapshot resolves a ref
// through the newest entry at or below its own sequence, and through
// the base when there is none. The sequence check matters even though
// object IDs and store OIDs are never reused: an update swaps a clone
// in under the same refs, and stored attribute values are
// caller-supplied and may hold a *dangling* ref that a later insert
// brings into existence; without the check an already-published
// snapshot would see either change mid-lifetime, a torn read.
//
// The side table is a fixed array of buckets, each an atomically
// swapped list of entries, newest first; the publisher (under e.mu) is
// its only writer, so readers never lock. Once a publication would take
// the side entries past foldRefsAt of the base, the publisher folds
// instead: the next snapshot gets a new table over a fresh copy of the
// live reference table (advance).
type refTable struct {
	base map[object.Ref]*core.GObj
	side []atomic.Pointer[refEntry] // len is a power of two
	// entries counts the side entries recorded. Only the publisher
	// reads or writes it, under e.mu.
	entries int
}

// refEntry is one side-table entry: what ref resolved to from
// publication seq on (nil: nothing), and the next older entry in its
// bucket.
type refEntry struct {
	ref  object.Ref
	g    *core.GObj
	seq  uint64
	next *refEntry
}

// foldRefsAt is the number of side entries past which a ref table with
// n base entries folds: max(64, n/8).
func foldRefsAt(n int) int { return max(64, n/8) }

func newRefTable(base map[object.Ref]*core.GObj) *refTable {
	buckets := 1
	for buckets < 2*foldRefsAt(len(base)) {
		buckets *= 2
	}
	return &refTable{base: base, side: make([]atomic.Pointer[refEntry], buckets)}
}

// bucket returns the side-table bucket of a ref.
func (t *refTable) bucket(r object.Ref) *atomic.Pointer[refEntry] {
	h := uint64(r.OID) * 0x9e3779b97f4a7c15
	for i := 0; i < len(r.DB); i++ {
		h = (h ^ uint64(r.DB[i])) * 0x100000001b3
	}
	return &t.side[(h^h>>29)&uint64(len(t.side)-1)]
}

// derefAt resolves a ref as of publication sequence seq: the newest
// side entry at or below seq decides, then the base.
func (t *refTable) derefAt(seq uint64, r object.Ref) (expr.Object, bool) {
	for en := t.bucket(r).Load(); en != nil; en = en.next {
		if en.ref == r && en.seq <= seq {
			if en.g == nil {
				return nil, false
			}
			return en.g, true
		}
	}
	if g, ok := t.base[r]; ok {
		return g, true
	}
	return nil, false
}

// advance returns the ref table of publication seq. It records what
// each touched ref resolves to in the live view in this table's side
// table, or — when that would take the side entries past foldRefsAt —
// folds into a new table over a copy of the live reference table.
// filed counts the entries written either way. A ref a batch touched
// twice gets two entries of one sequence and one value. Caller holds
// e.mu (write).
func (t *refTable) advance(v *core.GlobalView, touched []object.Ref, seq uint64, filed *atomic.Int64) *refTable {
	if t.entries+len(touched) > foldRefsAt(len(t.base)) {
		refs := v.RefsCopy()
		filed.Add(int64(len(refs)))
		return newRefTable(refs)
	}
	for _, r := range touched {
		var g *core.GObj
		if o, ok := v.Deref(r); ok {
			g = o.(*core.GObj)
		}
		slot := t.bucket(r)
		slot.Store(&refEntry{ref: r, g: g, seq: seq, next: slot.Load()})
	}
	t.entries += len(touched)
	filed.Add(int64(len(touched)))
	return t
}

// classState is one class's frozen serving state: the extent slice plus
// the lazily built indexes and cached plans over it. All lazily built
// structures are immutable after construction and registered through
// sync.Map LoadOrStore, so concurrent readers race only on who builds
// first (both build the same answer; one wins, the duplicate is
// garbage).
type classState struct {
	name string
	ext  []*core.GObj

	eq    sync.Map // attr → *eqIndex
	ord   sync.Map // attr → *ordIndex
	cols  sync.Map // colKey → *numColumn or *dictColumn (nil: refused)
	plans sync.Map // planKey → *plan
	// nplans bounds the plan cache (constants are part of the plan key,
	// so an adversarial stream of distinct constants would otherwise
	// grow it without limit); past the cap, plans are built per query
	// and not cached.
	nplans atomic.Int64
	// bases are the fresh index builds this state may derive its own
	// indexes from (inherit.go), set at publication and never written
	// after; deltas caches the extent walk against each base's extent.
	bases  map[baseKey]base
	deltas sync.Map // extKey → *extDelta (nil: past foldAt)
}

// maxPlansPerClass caps each class's plan cache.
const maxPlansPerClass = 4096

// snapshot is one published generation of the serving state.
type snapshot struct {
	// seq is the publication sequence number: it gates which side-table
	// deref entries this snapshot may resolve (see refTable).
	seq    uint64
	consts map[string]object.Value
	// classes maps each global class to its frozen serving state. It is
	// never written after publication: a delta publication clones it.
	classes map[string]*classState
	// decl maps each global class to the attribute set its origin class
	// declares (empty for virtual classes), captured at publication so
	// readers never touch the live view's metadata maps.
	decl map[string]map[string]bool
	// dict is the view's attribute dictionary at publication: column
	// kernels built against this snapshot address its slots.
	dict *core.AttrDict
	refs *refTable
	// checker answers the planner's solver queries for plans built
	// against this snapshot. It is captured at publication because a
	// federation membership change swaps the engine's derivation (and
	// checker) while lock-free readers may still be planning against
	// the previous generation.
	checker *logic.Checker
}

// deref resolves a ref as this snapshot saw the world at publication.
func (s *snapshot) deref(r object.Ref) (expr.Object, bool) {
	return s.refs.derefAt(s.seq, r)
}

// hasClass reports whether the snapshot serves the class.
func (s *snapshot) hasClass(name string) bool {
	_, ok := s.classes[name]
	return ok
}

// class returns the class's serving state in this snapshot. A class the
// snapshot does not know yields an ephemeral empty state (same semantics
// as serving an empty extent).
func (s *snapshot) class(name string) *classState {
	if cs, ok := s.classes[name]; ok {
		return cs
	}
	return &classState{name: name}
}

// extObjs is the snapshot's Env.Ext: the frozen extension of a class.
func (s *snapshot) extObjs(class string) []expr.Object {
	ext := s.class(class).ext
	out := make([]expr.Object, len(ext))
	for i, g := range ext {
		out[i] = g
	}
	return out
}

// queryEnv builds the evaluation environment one query's residual runs
// in, mirroring core.GlobalView.Env but reading only snapshot state. The
// query binds Self per candidate row and reuses everything else.
func (s *snapshot) queryEnv() *expr.Env {
	return &expr.Env{
		Declared: s,
		Consts:   s.consts,
		Ext:      s.extObjs,
		Deref:    s.deref,
	}
}

// Declares implements expr.Declarer: an attribute a frozen object does
// not store reads as null when one of its classes declares it.
func (s *snapshot) Declares(self expr.Object, attr string) bool {
	g, ok := self.(*core.GObj)
	return ok && s.declaresAttr(g, attr)
}

// declaresAttr mirrors core.GlobalView.DeclaresAttr over snapshot state:
// whether any class of the object declares the attribute.
func (s *snapshot) declaresAttr(g *core.GObj, attr string) bool {
	return core.DeclaredIn(s.decl, g, attr)
}

// buildDecl computes the class → declared-attribute map of a structural
// publication: the live view's table (core.GlobalView.DeclTable) over
// every class it serves, a virtual class declaring nothing itself.
func buildDecl(v *core.GlobalView) map[string]map[string]bool {
	table := v.DeclTable()
	out := make(map[string]map[string]bool, len(v.ClassNames))
	for _, name := range v.ClassNames {
		out[name] = table[name]
	}
	return out
}

func newClassState(name string, liveExt []*core.GObj) *classState {
	return &classState{name: name, ext: append([]*core.GObj{}, liveExt...)}
}

// publishDeltaLocked publishes one applied batch as a per-class delta:
// changed names every class whose extent content changed (gained, lost
// or replaced a member), touched lists every ref whose resolution the
// batch may have changed (the refs of inserted objects and of update
// and delete targets), and fork reports that some operation updated or
// deleted. The next snapshot
// clones the class map and replaces each changed class's state; every
// other class's state — extent, indexes, cached plans — carries over,
// and readers of untouched classes keep hitting their plan caches. A
// replaced state inherits its predecessor's index bases (inherit.go).
// A batch that created a class (first member of a previously empty
// superclass) publishes structurally instead, because the declared-
// attribute map must grow with it. Caller holds e.mu (write).
func (e *Engine) publishDeltaLocked(changed []string, touched []object.Ref, fork bool) {
	old := e.snap.Load()
	for _, name := range changed {
		if !old.hasClass(name) {
			e.publishStructuralLocked(changed)
			return
		}
	}
	v := e.res.View
	next := &snapshot{
		seq:     old.seq + 1,
		consts:  v.Conformed.Consts,
		classes: maps.Clone(old.classes),
		decl:    old.decl,
		dict:    v.Dict(),
		checker: e.checker,
	}
	next.refs = old.refs.advance(v, touched, next.seq, &e.counters.derefFiled)
	for _, name := range changed {
		prev := old.classes[name]
		if next.classes[name] != prev {
			continue // named twice in the batch: already replaced
		}
		liveExt := v.Extent(name)
		var cs *classState
		if grown := len(liveExt) - len(prev.ext); !fork && grown >= 0 {
			// Pure inserts only append to extents, so the new state's
			// extent is the previous one plus the live tail. The append
			// may write into the previous state's backing array, but only
			// beyond every published length — no reader can see the new
			// elements through an older slice header.
			cs = &classState{name: name, ext: append(prev.ext, liveExt[len(prev.ext):]...)}
		} else {
			cs = newClassState(name, liveExt)
		}
		cs.bases = inheritBases(prev)
		next.classes[name] = cs
	}
	e.snap.Store(next)
	e.counters.publishes.Add(1)
}

// publishStructuralLocked publishes a fresh class map over the live
// class set. Every class named in rebuild, and every class the previous
// snapshot does not serve, is built from its live extent; every other
// class CARRIES OVER — its frozen extent, lazily built indexes and
// cached plans survive (pinned by the federation plan-survival tests).
// Carrying over is sound because the published snapshot equals the live
// view whenever e.mu is free, so a class the caller did not name still
// serves its live content. Classes that left the live class set leave
// the snapshot with it. The deref table is forked and the declared-
// attribute map rebuilt: both can change shape arbitrarily when members
// come and go, and a rebuilt class starts without index bases. The
// constructor (no previous snapshot: every class is built), Rebind, a
// batch that created a class and the error fallback (every class named)
// publish here. Caller holds e.mu (write) or is the
// constructor.
func (e *Engine) publishStructuralLocked(rebuild []string) {
	v := e.res.View
	old := e.snap.Load()
	refs := v.RefsCopy()
	e.counters.derefFiled.Add(int64(len(refs)))
	next := &snapshot{
		consts:  v.Conformed.Consts,
		classes: make(map[string]*classState, len(v.ClassNames)),
		decl:    buildDecl(v),
		dict:    v.Dict(),
		refs:    newRefTable(refs),
		checker: e.checker,
	}
	var carried map[string]*classState // nil for the constructor
	if old != nil {
		next.seq = old.seq + 1
		carried = old.classes
	}
	fresh := make(map[string]bool, len(rebuild))
	for _, name := range rebuild {
		fresh[name] = true
	}
	for _, name := range v.ClassNames {
		if cs, ok := carried[name]; ok && !fresh[name] {
			next.classes[name] = cs
		} else {
			next.classes[name] = newClassState(name, v.Extent(name))
		}
	}
	e.snap.Store(next)
	e.counters.publishes.Add(1)
}
