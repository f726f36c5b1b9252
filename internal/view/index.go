package view

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/logic"
	"interopdb/internal/object"
)

// The extent-index subsystem: per-class hash indexes on
// equality-restricted attributes and ordered (sorted-slice) indexes on
// range-restricted attributes. Indexes are chosen automatically from
// the sargable fragment logic.ExtractRestriction recognises and built
// lazily on first use — inside the published snapshot's classState,
// over its frozen extent. They double as the planner's per-class
// statistics: bucket and range-window counts feed the cost model's
// selectivity estimates. Mutations never maintain an extent index in
// place. A delta publication hands the republished classState its
// predecessor's last fresh builds as bases, and the first query that
// needs an index derives it from its base when the extent moved little
// (inherit.go): an overlay that answers every probe exactly as a fresh
// build over the new extent would. Otherwise the index is built fresh,
// and that build becomes the next base (DESIGN.md §7.3, §8.4).
// Validate's key-holder index is the exception: it lives beside the
// live view and follows every write (mutate.go, keyIndex).
//
// Index answers are exact mirrors of the scan semantics: only non-null
// stored values are indexed (the interpreter evaluates comparisons and
// membership against null/missing attributes to false), hash buckets
// are re-checked row by row with probe.matches to discard collisions,
// and an ordered index declines to serve a probe whose constant is not
// order-comparable with every indexed value — the conjunct then falls
// back to the residual scan, which surfaces the same evaluation error
// the pure scan path would.
//
// A probe is resolved in two steps so a plan costs what its answer
// costs: resolve binds it to its index and computes a count (and, for a
// range, a [lo, hi) window per sorted run) by hash lookup or binary
// search, touching no row; positions materialises the rows — only ever
// called on the served prefix's smallest probe, the others filtering
// its rows through the same matches (planner.go servedPrefix).

// probeKind classifies a sargable conjunct.
type probeKind int

const (
	probeEq probeKind = iota
	probeRange
	probeIn
)

// bound is one side of a range probe: value ⊙ val for an ordering
// comparison ⊙. The zero bound is open.
type bound struct {
	op  expr.Op
	val object.Value
}

// admits reports whether a stored value of the bound's kind class (the
// only kind an accepting ordered index holds) lies inside the bound.
func (b bound) admits(v object.Value) bool {
	if b.val == nil {
		return true
	}
	c, _ := object.Compare(v, b.val)
	switch b.op {
	case expr.OpLt:
		return c < 0
	case expr.OpLe:
		return c <= 0
	case expr.OpGt:
		return c > 0
	default: // OpGe
		return c >= 0
	}
}

// tightens reports whether the bound admits strictly fewer values than
// cur, a bound on the same side (an open cur admits everything). Values
// decide, not window indexes: an overlay has two sorted runs, so equal
// windows on one run do not make two bounds equal.
func (b bound) tightens(cur bound) bool {
	if cur.val == nil {
		return true
	}
	c, _ := object.Compare(b.val, cur.val)
	if b.op == expr.OpGt || b.op == expr.OpGe {
		return c > 0 || (c == 0 && b.op == expr.OpGt && cur.op == expr.OpGe)
	}
	return c < 0 || (c == 0 && b.op == expr.OpLt && cur.op == expr.OpLe)
}

// probe is one index-answerable restriction of a query predicate: a
// sargable conjunct, or — for probeRange — every range conjunct the
// served prefix places on one attribute, merged (planner.go). resolve
// fills the second half against one snapshot's indexes.
type probe struct {
	attr         string
	kind         probeKind
	val          object.Value // probeEq
	set          *object.Set  // probeIn
	lower, upper bound        // probeRange: a conjunct sets one side, merging may set both

	eq  *eqIndex  // probeEq, probeIn
	ord *ordIndex // probeRange
	// probeRange: the [lo, hi) window of the index's entries and the
	// [lo2, hi2) window of an overlay's extra run; lo >= hi selects
	// nothing.
	lo, hi, lo2, hi2 int
	// n is how many extent positions the probe yields, known without
	// materialising them: the planner's selectivity statistic. Range
	// counts are exact for this snapshot; equality and set-membership
	// counts are upper bounds (hash-bucket collisions inflate them —
	// positions' matches re-check discards those), which only ever nudges
	// the cost gate toward running the constraint phase.
	n int
}

// sargableProbe recognises a conjunct the extent indexes can answer: an
// unguarded restriction on a direct (single-segment, stored) attribute.
// Guarded restrictions, dotted paths (they read through references),
// != comparisons and null constants (indexes hold only non-null values,
// but the interpreter evaluates null = null to true) stay in the
// residual predicate.
func sargableProbe(c expr.Node) (probe, bool) {
	r, ok := logic.ExtractRestriction(c)
	if !ok || r.Guard != nil || strings.Contains(r.Path, ".") {
		return probe{}, false
	}
	if r.IsSet() {
		return probe{attr: r.Path, kind: probeIn, set: r.Set}, true
	}
	if r.Val == nil || r.Val.Kind() == object.KindNull {
		return probe{}, false
	}
	switch r.Op {
	case expr.OpEq:
		return probe{attr: r.Path, kind: probeEq, val: r.Val}, true
	case expr.OpLt, expr.OpLe:
		return probe{attr: r.Path, kind: probeRange, upper: bound{r.Op, r.Val}}, true
	case expr.OpGt, expr.OpGe:
		return probe{attr: r.Path, kind: probeRange, lower: bound{r.Op, r.Val}}, true
	default:
		return probe{}, false
	}
}

// matches evaluates the probe on one row directly, exactly as the
// interpreter evaluates its conjuncts on a row the index accepted
// (null and absent values satisfy nothing). It is both the hash
// buckets' collision re-check and the planner's candidate filter, so an
// index answer and a filter answer cannot drift apart.
func (pr *probe) matches(g *core.GObj) bool {
	v, ok := g.Get(pr.attr)
	if !ok || v.Kind() == object.KindNull {
		return false
	}
	switch pr.kind {
	case probeEq:
		return v.Equal(pr.val)
	case probeIn:
		return pr.set.Contains(v)
	default: // probeRange
		return pr.lower.admits(v) && pr.upper.admits(v)
	}
}

// kindClass partitions value kinds into groups that object.Compare can
// totally order among themselves; 0 marks kinds the ordered index never
// holds.
func kindClass(v object.Value) int {
	switch v.Kind() {
	case object.KindInt, object.KindReal:
		return 1
	case object.KindString:
		return 2
	case object.KindBool:
		return 3
	case object.KindRef:
		return 4
	case object.KindSet:
		return 5
	default: // null, tuple: not indexed for ordering
		return 0
	}
}

// eqIndex is a hash index: value hash → ascending extent positions of
// objects holding a non-null value with that hash. ok is false when some
// extent member neither holds nor declares the attribute: for such
// objects the interpreter resolves the name to a same-named constant or
// an unknown-identifier error, not to the stored value, so the index
// declines and the conjunct stays in the residual scan.
//
// A fresh build (ov nil) keeps the frozen extent it indexes, so a later
// class version can derive its own index from it; an overlay (ov set,
// inherit.go) shares its base's buckets and answers for a newer extent.
type eqIndex struct {
	ok  bool
	pos map[uint64][]int
	ext []*core.GObj // fresh builds: the extent pos indexes
	ov  *eqOverlay
}

// count is how many positions are filed under the hash.
func (ix *eqIndex) count(h uint64) int {
	n := len(ix.pos[h])
	if ov := ix.ov; ov != nil {
		n += len(ov.added[h]) - ov.dead[h]
	}
	return n
}

// bucket returns the ascending positions filed under the hash: a fresh
// build's own bucket, read in place.
func (ix *eqIndex) bucket(h uint64) []int {
	if ix.ov == nil {
		return ix.pos[h]
	}
	return ix.ov.bucket(ix.pos[h], h)
}

// ordEntry is one ordered-index entry.
type ordEntry struct {
	val object.Value
	pos int
}

// ordIndex is a sorted-slice index over the non-null values of one
// attribute. ok is false when the extent holds values from different
// kind classes (no total order) or when some member neither holds nor
// declares the attribute (see eqIndex): the index then declines every
// probe. Like eqIndex, a fresh build keeps its extent and an overlay
// shares its base's entries (positions in the base's extent).
type ordIndex struct {
	ok      bool
	class   int // kindClass shared by all entries; 0 when empty
	entries []ordEntry
	ext     []*core.GObj // fresh builds: the extent entries index
	ov      *ordOverlay
}

// size is how many values the index holds.
func (ix *ordIndex) size() int {
	if ix.ov != nil {
		return ix.ov.live
	}
	return len(ix.entries)
}

// eqFor returns (building on first use) the class's hash index on the
// attribute: derived from its inherited base when the extent moved
// little, built fresh otherwise. Concurrent first probes may both
// build; LoadOrStore keeps one, and both are correct.
func (e *Engine) eqFor(s *snapshot, cs *classState, attr string) *eqIndex {
	if v, ok := cs.eq.Load(attr); ok {
		return v.(*eqIndex)
	}
	ix, filed := deriveEq(s, cs, attr)
	if ix == nil {
		ix, filed = buildEq(s, cs.ext, attr)
	}
	e.counters.indexFiled.Add(int64(filed))
	if v, loaded := cs.eq.LoadOrStore(attr, ix); loaded {
		return v.(*eqIndex)
	}
	return ix
}

// ordFor returns (building on first use) the class's ordered index on
// the attribute, derived or fresh as eqFor.
func (e *Engine) ordFor(s *snapshot, cs *classState, attr string) *ordIndex {
	if v, ok := cs.ord.Load(attr); ok {
		return v.(*ordIndex)
	}
	ix, filed := deriveOrd(s, cs, attr)
	if ix == nil {
		ix, filed = buildOrd(s, cs.ext, attr)
	}
	e.counters.indexFiled.Add(int64(filed))
	if v, loaded := cs.ord.LoadOrStore(attr, ix); loaded {
		return v.(*ordIndex)
	}
	return ix
}

// buildEq builds a fresh hash index over the extent and reports how many
// values it filed.
func buildEq(s *snapshot, ext []*core.GObj, attr string) (*eqIndex, int) {
	ix := &eqIndex{ok: true, pos: map[uint64][]int{}, ext: ext}
	filed := 0
	for p, g := range ext {
		v, ok := g.Get(attr)
		if !ok {
			if !s.declaresAttr(g, attr) {
				ix.ok = false
				ix.pos = nil
				return ix, filed
			}
			continue // declared-but-absent evaluates to null: never matches
		}
		if v.Kind() == object.KindNull {
			continue
		}
		h := object.Hash(v)
		ix.pos[h] = append(ix.pos[h], p)
		filed++
	}
	return ix, filed
}

// buildOrd builds a fresh ordered index over the extent and reports how
// many values it filed.
func buildOrd(s *snapshot, ext []*core.GObj, attr string) (*ordIndex, int) {
	ix := &ordIndex{ok: true, ext: ext}
	for p, g := range ext {
		v, ok := g.Get(attr)
		if !ok {
			if !s.declaresAttr(g, attr) {
				ix.ok = false
				filed := len(ix.entries)
				ix.entries = nil
				return ix, filed
			}
			continue
		}
		if v.Kind() == object.KindNull {
			continue
		}
		kc := kindClass(v)
		if kc == 0 || (ix.class != 0 && kc != ix.class) {
			ix.ok = false
			filed := len(ix.entries)
			ix.entries = nil
			return ix, filed
		}
		ix.class = kc
		ix.entries = append(ix.entries, ordEntry{val: v, pos: p})
	}
	sortOrd(ix.entries)
	return ix, len(ix.entries)
}

// sortOrd orders entries by value, ties by position. buildOrd appends
// entries in position order and positions are unique, so this is the
// order a stable sort by value alone gives, at an unstable sort's price.
func sortOrd(entries []ordEntry) {
	slices.SortFunc(entries, func(a, b ordEntry) int {
		if c, _ := object.Compare(a.val, b.val); c != 0 { // one kind class: always ordered
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
}

// resolve binds the probe to the snapshot's class indexes (built on
// first use) and computes its windows and count without materialising a
// position. It declines (false) when the index cannot mirror the
// interpreter's semantics for the probe: the conjunct then stays in the
// residual scan.
func (e *Engine) resolve(s *snapshot, cs *classState, pr *probe) bool {
	if pr.kind == probeRange {
		return e.ordFor(s, cs, pr.attr).bind(pr)
	}
	return e.eqFor(s, cs, pr.attr).bind(pr)
}

// bind binds an equality or set-membership probe to the index and
// counts it, or declines.
func (ix *eqIndex) bind(pr *probe) bool {
	if !ix.ok {
		return false
	}
	pr.eq = ix
	if pr.kind == probeEq {
		pr.n = ix.count(object.Hash(pr.val))
		return true
	}
	pr.n = 0
	for _, elem := range pr.set.Elems() {
		if elem.Kind() != object.KindNull { // null never matches a stored value
			pr.n += ix.count(object.Hash(elem))
		}
	}
	return true
}

// bind binds a one-conjunct range probe to the index and sets its
// windows, or declines.
func (ix *ordIndex) bind(pr *probe) bool {
	c := pr.lower // a conjunct's probe has exactly one side set
	if c.val == nil {
		c = pr.upper
	}
	if !ix.ok || (ix.size() > 0 && kindClass(c.val) != ix.class) {
		// No total order with this constant: the residual scan
		// reproduces the interpreter's comparison semantics
		// (including errors on incomparable values).
		return false
	}
	pr.ord = ix
	ix.window(pr)
	return true
}

// window sets a bound range probe's windows and count from both its
// bounds: the entries each bound admits, intersected, on every run.
func (ix *ordIndex) window(pr *probe) {
	pr.lo, pr.hi, pr.lo2, pr.hi2, pr.n = 0, 0, 0, 0, 0
	if ix.ov == nil || ix.ov.baseLive > 0 {
		pr.lo, pr.hi = boundsWindow(ix.entries, pr.lower, pr.upper)
		pr.n = max(0, pr.hi-pr.lo)
	}
	if ix.ov != nil {
		pr.n += ix.ov.window(pr)
	}
}

// positions materialises a resolved probe: the ascending extent
// positions of the rows it matches, freshly allocated.
func (pr *probe) positions(ext []*core.GObj) []int {
	switch pr.kind {
	case probeEq:
		return pr.eqProbe(nil, ext, pr.val)
	case probeIn:
		var union []int
		for _, elem := range pr.set.Elems() {
			union = pr.eqProbe(union, ext, elem)
		}
		slices.Sort(union)
		return slices.Compact(union)
	default: // probeRange
		if pr.n == 0 {
			return nil // empty or inverted windows
		}
		out := make([]int, 0, pr.n)
		if ov := pr.ord.ov; ov != nil {
			out = ov.positions(out, pr)
		} else {
			for _, en := range pr.ord.entries[pr.lo:pr.hi] {
				out = append(out, en.pos)
			}
		}
		slices.Sort(out)
		return out
	}
}

// eqProbe appends the positions of val's hash bucket (ascending) whose
// row the probe matches: collisions are discarded by the re-check.
func (pr *probe) eqProbe(out []int, ext []*core.GObj, val object.Value) []int {
	for _, p := range pr.eq.bucket(object.Hash(val)) {
		if pr.matches(ext[p]) {
			out = append(out, p)
		}
	}
	return out
}

// boundsWindow locates the [lo, hi) window of sorted entries that both
// bounds admit; an open bound admits everything, and lo >= hi selects
// nothing.
func boundsWindow(entries []ordEntry, lower, upper bound) (lo, hi int) {
	lo, hi = 0, len(entries)
	if lower.val != nil {
		lo = cut(entries, lower)
	}
	if upper.val != nil {
		hi = cut(entries, upper)
	}
	return lo, hi
}

// cut is the index of the first entry above the bound's constant:
// strictly above for <= and >, at-or-above for < and >=. An upper bound
// admits the entries before it, a lower bound those from it on.
func cut(entries []ordEntry, b bound) int {
	strict := b.op == expr.OpLe || b.op == expr.OpGt
	return sort.Search(len(entries), func(i int) bool {
		c, _ := object.Compare(entries[i].val, b.val)
		return c > 0 || (c == 0 && !strict)
	})
}
