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
// equality-restricted attributes, ordered (sorted-slice) indexes on
// range-restricted attributes, and composite-key indexes for mutation
// validation. Indexes are chosen automatically from the sargable
// fragment logic.ExtractRestriction recognises and built lazily on
// first use — inside the published snapshot's classState, over its
// frozen extent. They double as the planner's per-class statistics:
// bucket and range-window counts feed the cost model's selectivity
// estimates. Mutations never maintain an index in place; publishing a
// snapshot replaces the affected classState wholesale and the next
// query rebuilds on demand (the single invalidation rule of §8).
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
// range, a [lo, hi) window of the sorted slice) by hash lookup or binary
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

	eq     *eqIndex  // probeEq, probeIn
	ord    *ordIndex // probeRange
	lo, hi int       // probeRange: the [lo, hi) entry window; lo >= hi selects nothing
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
type eqIndex struct {
	ok  bool
	pos map[uint64][]int
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
// probe.
type ordIndex struct {
	ok      bool
	class   int // kindClass shared by all entries; 0 when empty
	entries []ordEntry
}

// keyIndex is the composite-key index behind Validate's negative
// filter (txState.noLiveHolder): the set of KeyString encodings held by
// the frozen extent. A key it lacks has no holder there.
type keyIndex map[string]bool

// eqFor returns (building on first use) the class's hash index on the
// attribute. Concurrent first probes may both build; LoadOrStore keeps
// one, and both are correct.
func (e *Engine) eqFor(s *snapshot, cs *classState, attr string) *eqIndex {
	if v, ok := cs.eq.Load(attr); ok {
		return v.(*eqIndex)
	}
	ix := buildEq(s, cs.ext, attr)
	if v, loaded := cs.eq.LoadOrStore(attr, ix); loaded {
		return v.(*eqIndex)
	}
	return ix
}

// ordFor returns (building on first use) the class's ordered index on
// the attribute.
func (e *Engine) ordFor(s *snapshot, cs *classState, attr string) *ordIndex {
	if v, ok := cs.ord.Load(attr); ok {
		return v.(*ordIndex)
	}
	ix := buildOrd(s, cs.ext, attr)
	if v, loaded := cs.ord.LoadOrStore(attr, ix); loaded {
		return v.(*ordIndex)
	}
	return ix
}

// keyFor returns (building on first use) the class's composite-key
// index.
func (e *Engine) keyFor(cs *classState, attrs []string) keyIndex {
	sig := strings.Join(attrs, "\x00")
	if v, ok := cs.key.Load(sig); ok {
		return v.(keyIndex)
	}
	ix := buildKey(cs.ext, attrs)
	if v, loaded := cs.key.LoadOrStore(sig, ix); loaded {
		return v.(keyIndex)
	}
	return ix
}

func buildEq(s *snapshot, ext []*core.GObj, attr string) *eqIndex {
	ix := &eqIndex{ok: true, pos: map[uint64][]int{}}
	for p, g := range ext {
		v, ok := g.Get(attr)
		if !ok {
			if !s.declaresAttr(g, attr) {
				ix.ok = false
				ix.pos = nil
				return ix
			}
			continue // declared-but-absent evaluates to null: never matches
		}
		if v.Kind() == object.KindNull {
			continue
		}
		h := object.Hash(v)
		ix.pos[h] = append(ix.pos[h], p)
	}
	return ix
}

func buildOrd(s *snapshot, ext []*core.GObj, attr string) *ordIndex {
	ix := &ordIndex{ok: true}
	for p, g := range ext {
		v, ok := g.Get(attr)
		if !ok {
			if !s.declaresAttr(g, attr) {
				ix.ok = false
				ix.entries = nil
				return ix
			}
			continue
		}
		if v.Kind() == object.KindNull {
			continue
		}
		kc := kindClass(v)
		if kc == 0 || (ix.class != 0 && kc != ix.class) {
			ix.ok = false
			ix.entries = nil
			return ix
		}
		ix.class = kc
		ix.entries = append(ix.entries, ordEntry{val: v, pos: p})
	}
	sortOrd(ix.entries)
	return ix
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

func buildKey(ext []*core.GObj, attrs []string) keyIndex {
	ix := make(keyIndex, len(ext))
	for _, g := range ext {
		if k, ok := expr.KeyString(g, attrs); ok {
			ix[k] = true
		}
	}
	return ix
}

// resolve binds the probe to the snapshot's class indexes (built on
// first use) and computes its window and count without materialising a
// position. It declines (false) when the index cannot mirror the
// interpreter's semantics for the probe: the conjunct then stays in the
// residual scan.
func (e *Engine) resolve(s *snapshot, cs *classState, pr *probe) bool {
	if pr.kind == probeRange {
		c := pr.lower // a conjunct's probe has exactly one side set
		if c.val == nil {
			c = pr.upper
		}
		ix := e.ordFor(s, cs, pr.attr)
		if !ix.ok || (len(ix.entries) > 0 && kindClass(c.val) != ix.class) {
			// No total order with this constant: the residual scan
			// reproduces the interpreter's comparison semantics
			// (including errors on incomparable values).
			return false
		}
		pr.ord = ix
		pr.lo, pr.hi = rangeWindow(ix, c)
		pr.n = pr.hi - pr.lo
		return true
	}
	ix := e.eqFor(s, cs, pr.attr)
	if !ix.ok {
		return false
	}
	pr.eq = ix
	if pr.kind == probeEq {
		pr.n = len(ix.pos[object.Hash(pr.val)])
		return true
	}
	for _, elem := range pr.set.Elems() {
		if elem.Kind() != object.KindNull { // null never matches a stored value
			pr.n += len(ix.pos[object.Hash(elem)])
		}
	}
	return true
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
			return nil // empty or inverted window
		}
		out := make([]int, 0, pr.n)
		for _, en := range pr.ord.entries[pr.lo:pr.hi] {
			out = append(out, en.pos)
		}
		slices.Sort(out)
		return out
	}
}

// eqProbe appends the positions of val's hash bucket (ascending) whose
// row the probe matches: collisions are discarded by the re-check.
func (pr *probe) eqProbe(out []int, ext []*core.GObj, val object.Value) []int {
	for _, p := range pr.eq.pos[object.Hash(val)] {
		if pr.matches(ext[p]) {
			out = append(out, p)
		}
	}
	return out
}

// rangeWindow locates the [lo, hi) entry window satisfying value ⊙ c.
func rangeWindow(ix *ordIndex, b bound) (lo, hi int) {
	// cut is the first entry above the constant: strictly above for
	// <= and >, at-or-above for < and >=.
	strict := b.op == expr.OpLe || b.op == expr.OpGt
	cut := sort.Search(len(ix.entries), func(i int) bool {
		cmp, _ := object.Compare(ix.entries[i].val, b.val)
		return cmp > 0 || (cmp == 0 && !strict)
	})
	if b.op == expr.OpLt || b.op == expr.OpLe {
		return 0, cut
	}
	return cut, len(ix.entries)
}
