package view

import (
	"sync"
	"sync/atomic"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/logic"
	"interopdb/internal/object"
)

// Snapshot serving (DESIGN.md §8, §11): the engine publishes an
// immutable per-class snapshot of the integrated view — frozen extent
// slices, a frozen deref map, lazily built extent indexes, and the
// per-class plan cache — through an atomic pointer. Run pins the
// current snapshot in an epoch slot (epoch.go) and serves entirely from
// it, so reads never take e.mu and never touch the live view. Ship,
// Reconcile and Rebind mutate the live view under the write lock and
// publish before releasing it: whenever e.mu is free, the published
// snapshot equals the live view.
//
// Publication is per class: each global class has a classSlot holding a
// chain of classVersions, newest first, and a snapshot is little more
// than a sequence number over the shared slot map. A writer to class A
// pushes a new version onto A's chain without touching class B's — B's
// extent, indexes and cached plans survive, and readers of B never
// observe an invalidation. A reader pinned at sequence P resolves a
// class to the newest chained version with seq <= P; versions no pinned
// epoch can resolve are excised by reclaimLocked after every delta
// publication.
//
// The freeze contract the copy-on-write publication relies on:
//
//   - extent slices in a class version are private to the publication
//     path, so in-place splices on the live view cannot reach them; a
//     pure-insert publication APPENDS to the previous version's slice
//     (the new objects land beyond every published length, so older
//     versions sharing the backing array never see them), amortising
//     the copy-on-write cost that used to tax singleton inserts;
//   - objects reachable from a snapshot are never mutated: updates go
//     through core.DetachForUpdate, which swaps a fresh clone into the
//     live view and leaves the original frozen; deletes splice the
//     object out without touching it; inserts create new objects;
//   - the deref map is forked (full copy) whenever an update or delete
//     changed existing entries, and merely extended through an
//     internally synchronized side table after pure inserts — older
//     snapshots cannot observe refs to objects that postdate them,
//     because object IDs and store OIDs are never reused.

// refTable is a snapshot's deref map: a frozen base forked from the live
// view's reference table, plus a concurrency-safe side table holding
// refs added by pure inserts since the fork. The side table is shared
// with newer snapshots, and every entry carries the publication
// sequence number that introduced it: a snapshot resolves only entries
// at or below its own sequence. The sequence check matters even though
// object IDs and store OIDs are never reused — stored attribute values
// are caller-supplied and may hold a *dangling* ref that a later insert
// brings into existence, and without the check an already-published
// snapshot would flip that ref from unresolvable (Null reads) to
// resolvable mid-lifetime, a torn read.
type refTable struct {
	base  map[object.Ref]*core.GObj
	added *sync.Map // object.Ref → addedRef
}

// addedRef is one side-table entry: the object plus the publication
// sequence that added it.
type addedRef struct {
	g   *core.GObj
	seq uint64
}

func newRefTable(base map[object.Ref]*core.GObj) *refTable {
	return &refTable{base: base, added: &sync.Map{}}
}

// derefAt resolves a ref as of publication sequence seq.
func (t *refTable) derefAt(seq uint64, r object.Ref) (expr.Object, bool) {
	if g, ok := t.base[r]; ok {
		return g, true
	}
	if v, ok := t.added.Load(r); ok {
		if a := v.(addedRef); a.seq <= seq {
			return a.g, true
		}
	}
	return nil, false
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
	plans sync.Map // planKey → *plan
	// selfAttrs caches each member's known-attribute set (stored ∪
	// declared). Living inside the classState bounds it: an update or
	// delete republishes every class the object belongs to, so entries
	// for superseded objects die with the state that held them.
	selfAttrs sync.Map // *core.GObj → map[string]bool
	// nplans bounds the plan cache (constants are part of the plan key,
	// so an adversarial stream of distinct constants would otherwise
	// grow it without limit); past the cap, plans are built per query
	// and not cached.
	nplans atomic.Int64
}

// maxPlansPerClass caps each class's plan cache.
const maxPlansPerClass = 4096

// classVersion is one link in a class's version chain, newest first.
// Once published, seq and state never change; prev is rewritten only by
// truncateChain, which unlinks excised versions while leaving their own
// prev pointers intact — a reader walking through an excised version
// still terminates at its resolution.
type classVersion struct {
	seq   uint64
	state *classState
	prev  atomic.Pointer[classVersion]
}

// classSlot is one class's publication cell: the head of its version
// chain. Slots are shared by every snapshot of one structural
// generation; a structural publication (construction, membership
// change, class-set growth, error-path recovery) mints a fresh slot map
// and strands the old one with the readers still pinned on it.
type classSlot struct {
	head atomic.Pointer[classVersion]
}

// snapshot is one published generation of the serving state.
type snapshot struct {
	// seq is the publication sequence number: it gates both which
	// side-table deref entries this snapshot may resolve (see refTable)
	// and which chained class versions it observes.
	seq    uint64
	consts map[string]object.Value
	// slots maps each global class to its version chain. The map itself
	// is immutable (shared across delta publications; replaced wholesale
	// by structural ones) — only the chain heads move.
	slots map[string]*classSlot
	// decl maps each global class to the attribute set its origin class
	// declares (empty for virtual classes), captured at publication so
	// readers never touch the live view's metadata maps.
	decl map[string]map[string]bool
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
	_, ok := s.slots[name]
	return ok
}

// class resolves the class's serving state as of this snapshot: the
// newest chained version at or below the snapshot's sequence. A class
// the snapshot does not know yields an ephemeral empty state (same
// semantics as serving an empty extent). The current snapshot always
// resolves at the chain head in one step; only readers pinned on older
// sequences walk further.
func (s *snapshot) class(name string) *classState {
	sl, ok := s.slots[name]
	if !ok {
		return &classState{name: name}
	}
	for v := sl.head.Load(); v != nil; v = v.prev.Load() {
		if v.seq <= s.seq {
			return v.state
		}
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

// env builds the evaluation environment for one frozen object, mirroring
// core.GlobalView.Env byte for byte but reading only snapshot state. The
// SelfAttrs map is cached per object in the serving classState: objects
// reachable from snapshots are frozen, and a class's declared-attribute
// set never changes once the class exists, so a cached map can never go
// stale.
func (s *snapshot) env(cs *classState, g *core.GObj) *expr.Env {
	return &expr.Env{
		Vars:      map[string]expr.Object{"self": g},
		SelfAttrs: s.selfAttrsOf(cs, g),
		Consts:    s.consts,
		Ext:       s.extObjs,
		Deref:     s.deref,
	}
}

// declaresAttr mirrors core.GlobalView.DeclaresAttr over snapshot state:
// whether any class of the object declares the attribute.
func (s *snapshot) declaresAttr(g *core.GObj, attr string) bool {
	for cls := range g.Classes {
		if s.decl[cls][attr] {
			return true
		}
	}
	return false
}

// selfAttrsOf returns the object's known-attribute set (stored ∪
// declared), cached in the classState serving it.
func (s *snapshot) selfAttrsOf(cs *classState, g *core.GObj) map[string]bool {
	if v, ok := cs.selfAttrs.Load(g); ok {
		return v.(map[string]bool)
	}
	attrs := make(map[string]bool, len(g.Attrs)+8)
	for a := range g.Attrs {
		attrs[a] = true
	}
	for cls := range g.Classes {
		for a := range s.decl[cls] {
			attrs[a] = true
		}
	}
	if v, loaded := cs.selfAttrs.LoadOrStore(g, attrs); loaded {
		return v.(map[string]bool)
	}
	return attrs
}

// buildDecl computes the class → declared-attribute map from the live
// view, for a structural publication.
func buildDecl(v *core.GlobalView) map[string]map[string]bool {
	out := make(map[string]map[string]bool, len(v.ClassNames))
	for _, name := range v.ClassNames {
		org, ok := v.Origin[name]
		if !ok {
			out[name] = nil // virtual class: declares nothing itself
			continue
		}
		set := map[string]bool{}
		for _, a := range v.Conformed.SchemaOf(org.Side).AllAttrs(org.Class) {
			set[a.Name] = true
		}
		out[name] = set
	}
	return out
}

func newClassState(name string, liveExt []*core.GObj) *classState {
	return &classState{name: name, ext: append([]*core.GObj{}, liveExt...)}
}

// newSlot builds a single-version slot for a structural publication.
func newSlot(seq uint64, state *classState) *classSlot {
	sl := &classSlot{}
	sl.head.Store(&classVersion{seq: seq, state: state})
	return sl
}

// publishDeltaLocked publishes one applied batch as a per-class delta:
// changed names every class whose extent content changed (gained, lost
// or replaced a member), inserted lists freshly created objects whose
// refs extend the deref map, and fork forces a deref fork because
// existing entries changed (any update or delete). A new version is
// pushed onto each changed class's chain; every other class's slot —
// extent, indexes, cached plans — is untouched, and readers of
// untouched classes keep hitting their plan caches. The shared slot map
// is read lock-free and cannot grow in place, so a batch that created a
// class (first member of a previously empty superclass) publishes
// structurally instead. Caller holds e.mu (write).
func (e *Engine) publishDeltaLocked(changed []string, inserted []*core.GObj, fork bool) {
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
		slots:   old.slots,
		decl:    old.decl,
		checker: e.checker,
	}
	if fork {
		next.refs = newRefTable(v.RefsCopy())
	} else {
		next.refs = old.refs
		for _, g := range inserted {
			for _, r := range v.RefsOf(g) {
				next.refs.added.Store(r, addedRef{g: g, seq: next.seq})
			}
		}
	}
	for _, name := range changed {
		sl := old.slots[name]
		head := sl.head.Load()
		if head.seq == next.seq {
			continue // named twice in the batch: already pushed
		}
		liveExt := v.Extent(name)
		var state *classState
		if grown := len(liveExt) - len(head.state.ext); !fork && grown >= 0 {
			// Pure inserts only append to extents, so the new version's
			// extent is the previous one plus the live tail. The append
			// may write into the previous version's backing array, but
			// only beyond every published length — no reader can see the
			// new elements through an older slice header.
			state = &classState{name: name, ext: append(head.state.ext, liveExt[len(head.state.ext):]...)}
		} else {
			state = newClassState(name, liveExt)
		}
		nv := &classVersion{seq: next.seq, state: state}
		nv.prev.Store(head)
		sl.head.Store(nv)
		e.deep[name] = sl
	}
	e.snap.Store(next)
	e.counters.publishes.Add(1)
	e.reclaimLocked()
}

// publishStructuralLocked publishes a fresh slot map over the live class
// set. Every class named in rebuild, and every class the previous
// snapshot does not serve, is built from its live extent; every other
// class CARRIES OVER — its frozen extent, lazily built indexes and
// cached plans survive in a fresh single-version slot (pinned by the
// federation plan-survival tests). Carrying over is sound because the
// published snapshot equals the live view whenever e.mu is free, so a
// class the caller did not name still serves its live content. Classes
// that left the live class set leave the snapshot with it. The deref
// table is forked and the declared-attribute map rebuilt: both can
// change shape arbitrarily when members come and go.
//
// The previous generation's slots stay reachable only from the
// snapshots already pinned on them and are never truncated again — they
// become garbage when the last such reader unpins. The constructor (no
// previous snapshot: every class is built), Rebind, a batch that created
// a class and the error fallback (every class named) publish here.
// Caller holds e.mu (write) or is the constructor.
func (e *Engine) publishStructuralLocked(rebuild []string) {
	v := e.res.View
	old := e.snap.Load()
	next := &snapshot{
		consts:  v.Conformed.Consts,
		slots:   make(map[string]*classSlot, len(v.ClassNames)),
		decl:    buildDecl(v),
		refs:    newRefTable(v.RefsCopy()),
		checker: e.checker,
	}
	if old != nil {
		next.seq = old.seq + 1
	}
	fresh := make(map[string]bool, len(rebuild))
	for _, name := range rebuild {
		fresh[name] = true
	}
	for _, name := range v.ClassNames {
		var state *classState
		if old != nil && !fresh[name] && old.hasClass(name) {
			state = old.class(name)
		} else {
			state = newClassState(name, v.Extent(name))
		}
		next.slots[name] = newSlot(next.seq, state)
	}
	e.snap.Store(next)
	e.counters.publishes.Add(1)
	e.counters.structural.Add(1)
	e.deep = map[string]*classSlot{}
}

// reclaimLocked excises every retired class version no pinned reader
// epoch can resolve. The epoch scan runs AFTER the new snapshot pointer
// was stored (the publisher half of the Dekker protocol in epoch.go):
// any reader the scan misses is guaranteed to re-check the pointer, see
// the new snapshot and re-pin at it — so the versions kept here cover
// every reader that could still be walking a chain. Caller holds e.mu
// (write).
func (e *Engine) reclaimLocked() {
	if len(e.deep) == 0 {
		return
	}
	pinned := e.epochs.pinnedSeqs()
	for name, sl := range e.deep {
		if e.truncateChain(sl, pinned) {
			delete(e.deep, name)
		}
	}
}

// truncateChain unlinks every version that is neither the chain head
// nor the resolution of a pinned sequence (the newest version at or
// below it), reporting whether the chain is back to a single version.
// One kept version can resolve several pins; a stalled reader therefore
// retains exactly one version per class, never the whole ring. Excised
// versions keep their own prev pointers, so a reader already walking
// through one still reaches its (kept) resolution. pinned is sorted
// descending.
func (e *Engine) truncateChain(sl *classSlot, pinned []uint64) bool {
	head := sl.head.Load()
	pi := 0
	for pi < len(pinned) && pinned[pi] >= head.seq {
		pi++ // resolves at the head, which is always kept
	}
	last := head
	var truncated int64
	for v := head.prev.Load(); v != nil; v = v.prev.Load() {
		keep := false
		for pi < len(pinned) && pinned[pi] >= v.seq {
			keep = true // v is pinned[pi]'s resolution
			pi++
		}
		if keep {
			if last.prev.Load() != v {
				last.prev.Store(v)
			}
			last = v
		} else {
			truncated++
		}
	}
	if last.prev.Load() != nil {
		last.prev.Store(nil)
	}
	if truncated > 0 {
		e.counters.truncated.Add(truncated)
	}
	return head.prev.Load() == nil
}

// RingStats reports the multi-version ring's health: the published
// sequence, how many reader epochs are pinned and how far the oldest
// lags, and the reclaim state (retired versions still chained, classes
// with deep chains, cumulative excisions and structural rebuilds).
type RingStats struct {
	// Seq is the current publication sequence.
	Seq uint64
	// PinnedReaders counts reader epochs currently pinned on a version.
	PinnedReaders int
	// MaxLag is Seq minus the oldest pinned sequence (0 when no reader
	// is pinned): the version lag a stalled reader imposes.
	MaxLag uint64
	// ChainVersions counts retired class versions still linked behind a
	// chain head — the reclaim depth. Bounded by pinned readers ×
	// changed classes, and 0 when no reader is pinned.
	ChainVersions int
	// DeepClasses counts classes whose chain holds more than the head.
	DeepClasses int
	// Truncated is the cumulative count of excised versions;
	// Structural counts structural publications.
	Truncated  int64
	Structural int64
}

// RingStats returns the ring's current state. It takes the read lock
// (holding off publications, whose chain rewrites it would otherwise
// race), so it is a diagnostics call, not a serving-path one.
func (e *Engine) RingStats() RingStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := RingStats{
		Seq:           e.snap.Load().seq,
		PinnedReaders: e.epochs.pinnedCount(),
		DeepClasses:   len(e.deep),
		Truncated:     e.counters.truncated.Load(),
		Structural:    e.counters.structural.Load(),
	}
	if pinned := e.epochs.pinnedSeqs(); len(pinned) > 0 {
		if oldest := pinned[len(pinned)-1]; oldest < st.Seq {
			st.MaxLag = st.Seq - oldest
		}
	}
	for _, sl := range e.deep {
		for v := sl.head.Load().prev.Load(); v != nil; v = v.prev.Load() {
			st.ChainVersions++
		}
	}
	return st
}
