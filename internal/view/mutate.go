package view

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/object"
)

// This file implements the full mutation lifecycle at the integrated
// view — the update side of the paper's validation role (§5.2): before a
// subtransaction is shipped to a component database, the derived global
// constraints predict whether the local transaction manager would refuse
// it. PR 2 covered inserts only; updates, deletes and mixed batches are
// validated here with *delta-restricted* checking (à la Martinenghi's
// simplified integrity checking): a mutation re-checks only the
// constraint fragment it can possibly violate —
//
//   - insert:  every object constraint of the class, plus key uniqueness;
//   - update:  object constraints whose attribute footprint intersects
//     the touched attributes, extent-reading constraints (their truth can
//     depend on other objects), and key constraints over touched key
//     attributes;
//   - delete:  only extent-reading constraints, re-checked over the
//     remaining members (a deleted object cannot violate its own
//     constraints, and removing a tuple cannot create a key duplicate).
//
// ValidateStats counts the constraint×row work so the saving over a full
// CheckAll is measurable. Rejections carry minimal-change repair
// proposals (repair.go). Ship (route.go) decomposes an accepted batch
// into one component-store transaction per member, and on commit
// applyShipped below applies it to the integrated view
// (core.ApplyInsert/ApplyUpdate/ApplyDelete, including membership
// reclassification) and publishes one snapshot.

// MutationKind enumerates the staged mutation kinds.
type MutationKind int

// Mutation kinds.
const (
	MutInsert MutationKind = iota
	MutUpdate
	MutDelete
)

// String returns the lowercase kind name.
func (k MutationKind) String() string {
	switch k {
	case MutInsert:
		return "insert"
	case MutUpdate:
		return "update"
	case MutDelete:
		return "delete"
	default:
		return fmt.Sprintf("mutation(%d)", int(k))
	}
}

// Mutation is one staged operation of a batch transaction against the
// integrated view.
type Mutation struct {
	Kind  MutationKind
	Class string
	// ID is the integrated-view object ID (GlobalObject.ID) the update
	// or delete targets; unused for inserts.
	ID int
	// Attrs carries the full attribute map for an insert, or the
	// assigned attributes for a partial update; unused for deletes.
	Attrs map[string]object.Value
}

// ValidateStats counts the checking work a validation performed, so the
// delta restriction's saving over exhaustive re-validation is
// observable (asserted by TestValidateUpdateDeltaVsCheckAll, measured
// as view.pairs_checked_per_tx).
type ValidateStats struct {
	// ConstraintsChecked counts constraints the delta rule selected for
	// re-evaluation.
	ConstraintsChecked int
	// ConstraintsSkipped counts constraints the delta rule proved
	// unaffected by the mutation (no footprint intersection, no extent
	// reads) and did not evaluate.
	ConstraintsSkipped int
	// PairsChecked counts individual constraint×object evaluations
	// (a key-uniqueness probe counts one; a key sweep in CheckAll counts
	// one per extent member).
	PairsChecked int
}

func (s *ValidateStats) add(o ValidateStats) {
	s.ConstraintsChecked += o.ConstraintsChecked
	s.ConstraintsSkipped += o.ConstraintsSkipped
	s.PairsChecked += o.PairsChecked
}

// overlayObj views a base object with some attribute values overlaid
// (the proposed post-state of an update, or the pre-update state when
// reconstructing old keys). A nil overlay value marks the attribute as
// absent.
type overlayObj struct {
	base expr.Object
	set  map[string]object.Value
}

// Get implements expr.Object.
func (o overlayObj) Get(attr string) (object.Value, bool) {
	if v, ok := o.set[attr]; ok {
		if v == nil {
			return nil, false
		}
		return v, true
	}
	return o.base.Get(attr)
}

// Identity implements expr.Identifiable when the base object has one, so
// reference comparisons against the post-state behave like comparisons
// against the stored object.
func (o overlayObj) Identity() object.Ref {
	if id, ok := o.base.(interface{ Identity() object.Ref }); ok {
		return id.Identity()
	}
	return object.Ref{}
}

// txState is the staged post-state of a batch under validation: updates
// and deletes applied so far, and inserts staged so far, overlaid on the
// live view without mutating it.
type txState struct {
	e       *Engine
	ctx     context.Context
	post    map[int]map[string]object.Value // object ID → cumulative assignments
	deleted map[int]bool
	inserts map[string][]expr.Object // global class → staged inserts in its extent
	// updated logs the target of every staged update in staging order,
	// so a key filing re-files only the updates staged since it last
	// caught up.
	updated []int
	// staged files the batch's staged writes by key, per class and key
	// attributes a key check asked about; nil until a check finds staged
	// writes, so a single-op batch never builds it.
	staged map[string]*stagedKeys
	// op is the environment the operation under validation evaluates
	// in, sweep the one an extent sweep evaluates members in. Both are
	// built once per batch; an operation or member rebinds Self and
	// Declared.
	op, sweep expr.Env
}

func newTxState(ctx context.Context, e *Engine) *txState {
	s := &txState{
		e:       e,
		ctx:     ctx,
		post:    map[int]map[string]object.Value{},
		deleted: map[int]bool{},
		inserts: map[string][]expr.Object{},
	}
	s.op = expr.Env{Consts: e.res.View.Conformed.Consts, Ext: s.extent, Deref: s.deref}
	s.sweep = s.op
	s.sweep.Declared = memberDecl{e}
	return s
}

// view returns an object as the batch sees it (post-state overlaid).
func (s *txState) view(g *core.GObj) expr.Object {
	if set, ok := s.post[g.ID]; ok {
		return overlayObj{base: g, set: set}
	}
	return g
}

// extent returns the overlaid extension of a class: live members minus
// staged deletes, with staged assignments applied, plus staged inserts
// classified along their origin chain (matching ApplyInsert, which does
// not re-run Sim classification either).
func (s *txState) extent(class string) []expr.Object {
	live := s.e.res.View.Extent(class)
	out := make([]expr.Object, 0, len(live)+len(s.inserts[class]))
	for _, g := range live {
		if s.deleted[g.ID] {
			continue
		}
		out = append(out, s.view(g))
	}
	return append(out, s.inserts[class]...)
}

// deref resolves a reference over the overlaid state: a staged delete
// hides its target, a staged update shows through.
func (s *txState) deref(r object.Ref) (expr.Object, bool) {
	o, ok := s.e.res.View.Deref(r)
	if !ok {
		return nil, false
	}
	if g, isG := o.(*core.GObj); isG {
		if s.deleted[g.ID] {
			return nil, false
		}
		return s.view(g), true
	}
	return o, ok
}

// memberDecl is Env.Declared for a live member, staged or not, and for a
// repair proposed on one: an attribute is declared when one of the
// member's classes declares it (the view's per-class table,
// core.GlobalView.DeclaresAttr) or the batch assigns it. Evaluation asks
// only about a name self does not store.
type memberDecl struct{ e *Engine }

// Declares implements expr.Declarer.
func (d memberDecl) Declares(self expr.Object, attr string) bool {
	for {
		o, ok := self.(overlayObj)
		if !ok {
			break
		}
		if _, set := o.set[attr]; set {
			return true
		}
		self = o.base
	}
	g, ok := self.(*core.GObj)
	return ok && d.e.res.View.DeclaresAttr(g, attr)
}

// objectCheck is one deduplicated object constraint of a class set,
// with its delta-restriction metadata and the classes it is attached to
// (whose extents an extent-reading constraint is swept over).
type objectCheck struct {
	gc      core.GlobalConstraint
	attrs   map[string]bool
	ext     bool
	classes []string
}

// keyCheck is one key constraint of a class set: uniqueness is probed
// within the extent of the declaring class (the same key declared on
// several classes of the set yields one entry per class — per-extent
// uniqueness, matching the local managers).
type keyCheck struct {
	gc    core.GlobalConstraint
	class string
	attrs []string
	sig   string // keySig(class, attrs): the key index's and staged filing's map key
}

// keySig names a (class, key attributes) pair in the key-index and
// staged-filing maps.
func keySig(class string, attrs []string) string {
	return class + "\x00" + strings.Join(attrs, "\x00")
}

// attrList renders a key's attribute list as fmt's %v renders a
// []string, without fmt: rejection details are built on Validate's
// counted path (TestValidateSingleOpAllocBound).
func attrList(attrs []string) string { return "[" + strings.Join(attrs, " ") + "]" }

// consGroup merges the scope-all constraints of a class SET — all the
// classes a mutated object belongs to (or an insert would join). An
// object must satisfy the constraints of every class it is a member of,
// so validating against a single named class would let the verdict flip
// with the class name the caller happened to pass; the group is the
// per-object constraint closure, deduplicated across attachments.
type consGroup struct {
	object      []objectCheck
	objectExprs []expr.Node // same constraints, for repair verification
	keys        []keyCheck
}

// consForClasses returns the cached constraint group of a class set
// (order-insensitive; the cache key is the sorted set). It sorts classes
// in place.
func (e *Engine) consForClasses(classes []string) *consGroup {
	sort.Strings(classes)
	key := strings.Join(classes, "\x00")
	e.cmu.RLock()
	cg := e.mcons[key]
	e.cmu.RUnlock()
	if cg != nil {
		return cg
	}
	cg = &consGroup{}
	seenObj := map[string]int{}
	seenKey := map[string]bool{}
	for _, cls := range classes {
		cc := e.consFor(cls) // takes e.cmu itself
		for i, gc := range cc.objectGC {
			k := gc.Expr.String()
			if at, dup := seenObj[k]; dup {
				cg.object[at].classes = append(cg.object[at].classes, cls)
				continue
			}
			seenObj[k] = len(cg.object)
			cg.object = append(cg.object, objectCheck{
				gc: gc, attrs: cc.objectAttrs[i], ext: cc.objectExt[i], classes: []string{cls},
			})
			cg.objectExprs = append(cg.objectExprs, gc.Expr)
		}
		for _, gc := range cc.keys {
			k := gc.Expr.(expr.Key)
			sig := keySig(cls, k.Attrs)
			if seenKey[sig] {
				continue
			}
			seenKey[sig] = true
			cg.keys = append(cg.keys, keyCheck{gc: gc, class: cls, attrs: k.Attrs, sig: sig})
		}
	}
	e.cmu.Lock()
	if existing := e.mcons[key]; existing != nil {
		cg = existing
	} else {
		e.mcons[key] = cg
	}
	e.cmu.Unlock()
	return cg
}

// insertGroup returns the constraint group of the classes an insert
// into cc's class joins, built on the first insert and cached in cc.
func (e *Engine) insertGroup(cc *classCons) *consGroup {
	if cg := cc.insert.Load(); cg != nil {
		return cg
	}
	cg := e.consForClasses(slices.Clone(cc.chain))
	cc.insert.Store(cg)
	return cg
}

// insertChainClasses returns the global classes a staged insert into the
// class would join: the origin class's superclass chain, as ApplyInsert
// classifies it. consFor caches it per class (classCons.chain).
func (e *Engine) insertChainClasses(class string) []string {
	org, ok := e.res.View.Origin[class]
	if !ok {
		return []string{class}
	}
	var out []string
	for _, cn := range e.res.Conformed.SchemaOf(org.Side).Supers(org.Class) {
		out = append(out, e.res.View.GlobalName(org.Side, cn))
	}
	return out
}

// Validate is the one validation entrypoint — the paper's §5.2
// prediction of the local managers' verdict, made before any
// subtransaction is shipped. It stages a mixed insert/update/delete
// batch (mirroring store.Tx's deferred validation) and checks it
// atomically against the conformed global constraints:
// each operation is validated against the view state with all preceding
// operations of the batch applied, so intra-batch interactions — two
// inserts claiming one key, an update freeing a key an insert then
// takes, a delete emptying an extent an aggregate reads — resolve
// exactly as a deferred local commit would resolve them. Checking is
// delta-restricted per operation (see the package comment); the
// returned stats make the saving observable. A singleton mutation is a
// one-element batch. An empty result means the batch may proceed to the
// local managers; like all of §5.2's validation this is a prediction —
// the authoritative check is the local manager's at commit.
//
// The context is checked between operations and inside the extent
// sweeps: cancellation aborts validation with ctx.Err(). Validation
// never mutates the view, so an aborted call leaves no trace.
func (e *Engine) Validate(ctx context.Context, ops []Mutation) ([]Rejection, ValidateStats, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []Rejection
	var stats ValidateStats
	st := newTxState(ctx, e)
	for i, op := range ops {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		switch op.Kind {
		case MutInsert:
			rejs, s, err := e.validateInsertOp(st, op)
			if err != nil {
				return nil, stats, fmt.Errorf("op %d: %w", i, err)
			}
			out = append(out, rejs...)
			stats.add(s)
			// Stage the insert for the rest of the batch.
			obj := expr.MapObject(copyAttrs(op.Attrs))
			for _, cls := range e.consFor(op.Class).chain {
				st.inserts[cls] = append(st.inserts[cls], obj)
			}
		case MutUpdate:
			g, err := e.targetOf(op, st.deleted)
			if err != nil {
				return nil, stats, fmt.Errorf("op %d: %w", i, err)
			}
			rejs, s, err := e.validateUpdateOp(st, op, g)
			if err != nil {
				return nil, stats, fmt.Errorf("op %d: %w", i, err)
			}
			out = append(out, rejs...)
			stats.add(s)
			set := st.post[g.ID]
			if set == nil {
				set = map[string]object.Value{}
				st.post[g.ID] = set
			}
			for k, v := range op.Attrs {
				set[k] = v
			}
			st.updated = append(st.updated, g.ID)
		case MutDelete:
			g, err := e.targetOf(op, st.deleted)
			if err != nil {
				return nil, stats, fmt.Errorf("op %d: %w", i, err)
			}
			st.deleted[g.ID] = true
			rejs, s, err := e.validateDeleteOp(st, op, g)
			if err != nil {
				return nil, stats, fmt.Errorf("op %d: %w", i, err)
			}
			out = append(out, rejs...)
			stats.add(s)
		default:
			return nil, stats, fmt.Errorf("op %d: unknown mutation kind %d", i, int(op.Kind))
		}
	}
	return out, stats, nil
}

// targetOf resolves the object an update/delete names. Validate passes
// its staged deletes, which hide their targets from later operations of
// the batch; Ship passes nil and lets the member manager refuse a write
// to an object the same batch deleted. Staged inserts are not
// addressable — they have no view ID until shipped. Caller holds e.mu.
func (e *Engine) targetOf(op Mutation, deleted map[int]bool) (*core.GObj, error) {
	g, ok := e.res.View.ByID(op.ID)
	if !ok || deleted[op.ID] {
		return nil, fmt.Errorf("%s: no object g%d in the integrated view: %w", op.Kind, op.ID, ErrUnknownObject)
	}
	if !g.InClass(op.Class) {
		return nil, fmt.Errorf("%s: object g%d is not a member of class %s: %w", op.Kind, op.ID, op.Class, ErrUnknownClass)
	}
	return g, nil
}

// validateInsertOp checks a staged insert against the constraint group
// of every class the insert would join: every object constraint (an
// insert touches every attribute) and key uniqueness per declaring
// class against the overlaid extents, so duplicates within the batch
// are caught.
func (e *Engine) validateInsertOp(st *txState, op Mutation) ([]Rejection, ValidateStats, error) {
	if _, ok := e.res.View.Origin[op.Class]; !ok {
		return nil, ValidateStats{}, fmt.Errorf("insert: no origin class for global class %s: %w", op.Class, ErrUnknownClass)
	}
	var out []Rejection
	var stats ValidateStats
	obj := expr.MapObject(op.Attrs)
	cc := e.consFor(op.Class)
	env := &st.op
	env.Self, env.Declared = obj, expr.Attrs(e.res.View.DeclTable()[op.Class])
	cg := e.insertGroup(cc)
	for _, oc := range cg.object {
		stats.ConstraintsChecked++
		stats.PairsChecked++
		ok, err := env.EvalBool(oc.gc.Expr)
		if err == nil && !ok {
			out = append(out, Rejection{
				Constraint: oc.gc,
				Detail:     "violated by proposed state",
				Repairs:    e.proposeConstraintRepairs(oc.gc.Expr, cg.objectExprs, obj, env),
			})
		}
		// The new member extends the extents aggregates and quantifiers
		// read: re-check extent-reading constraints on existing members.
		if oc.ext {
			if err := e.sweepExtentChecks(st, oc, 0, "violated on an existing member by the staged insert", &out, &stats); err != nil {
				return nil, stats, err
			}
		}
	}
	for _, kc := range cg.keys {
		stats.ConstraintsChecked++
		stats.PairsChecked++
		if dupID, dup := st.findKeyHolder(kc, obj, nil); dup {
			out = append(out, Rejection{
				Constraint: kc.gc,
				Detail:     "duplicate key " + attrList(kc.attrs) + " in " + kc.class,
				Repairs:    keyRepairs(dupID),
			})
		}
	}
	return out, stats, nil
}

// validateUpdateOp delta-checks one staged update against the overlaid
// state, over the constraint group of every class the object belongs
// to: only constraints whose footprint intersects this operation's
// touched attributes — plus extent-reading constraints, which the new
// values may flip on OTHER members too — are re-evaluated.
func (e *Engine) validateUpdateOp(st *txState, op Mutation, g *core.GObj) ([]Rejection, ValidateStats, error) {
	var out []Rejection
	var stats ValidateStats
	// The post-state of THIS op: previous staged assignments plus op.Attrs.
	set := copyAttrs(st.post[g.ID])
	for k, v := range op.Attrs {
		set[k] = v
	}
	post := overlayObj{base: g, set: set}
	env := &st.op
	env.Self, env.Declared = post, memberDecl{e}
	cg := e.consForClasses(classNames(g))
	for _, oc := range cg.object {
		if !oc.ext && !footprintTouched(oc.attrs, op.Attrs) {
			stats.ConstraintsSkipped++
			continue
		}
		stats.ConstraintsChecked++
		stats.PairsChecked++
		ok, err := env.EvalBool(oc.gc.Expr)
		if err == nil && !ok {
			out = append(out, Rejection{
				Constraint: oc.gc,
				Detail:     "violated by proposed state of g" + strconv.Itoa(g.ID),
				Repairs:    e.proposeConstraintRepairs(oc.gc.Expr, cg.objectExprs, post, env),
			})
		}
		// An extent-reading constraint can flip on a different member
		// when this object's new values feed its aggregate/quantifier.
		if oc.ext {
			if err := e.sweepExtentChecks(st, oc, g.ID,
				"violated on another member by the staged update of g"+strconv.Itoa(g.ID), &out, &stats); err != nil {
				return nil, stats, err
			}
		}
	}
	for _, kc := range cg.keys {
		if !keyTouched(kc.attrs, op.Attrs) {
			stats.ConstraintsSkipped++
			continue
		}
		stats.ConstraintsChecked++
		stats.PairsChecked++
		if dupID, dup := st.findKeyHolder(kc, post, g); dup {
			out = append(out, Rejection{
				Constraint: kc.gc,
				Detail:     "duplicate key " + attrList(kc.attrs) + " on g" + strconv.Itoa(g.ID) + " in " + kc.class,
				Repairs:    keyRepairs(dupID),
			})
		}
	}
	return out, stats, nil
}

// validateDeleteOp re-checks the extent-reading constraints of the
// deleted object's class group over the remaining members (the staged
// delete is already applied to the overlay). Self-only constraints and
// key constraints cannot be violated by a removal and are skipped.
func (e *Engine) validateDeleteOp(st *txState, op Mutation, g *core.GObj) ([]Rejection, ValidateStats, error) {
	var out []Rejection
	var stats ValidateStats
	cg := e.consForClasses(classNames(g))
	stats.ConstraintsSkipped += len(cg.keys)
	for _, oc := range cg.object {
		if !oc.ext {
			stats.ConstraintsSkipped++
			continue
		}
		stats.ConstraintsChecked++
		if err := e.sweepExtentChecks(st, oc, g.ID,
			"violated on a remaining member after deleting g"+strconv.Itoa(op.ID), &out, &stats); err != nil {
			return nil, stats, err
		}
	}
	return out, stats, nil
}

// sweepExtentChecks re-evaluates one extent-reading constraint on the
// overlaid members of its attachment classes (excludeID skips the
// mutated object itself — it gets its own self-check), appending one
// witness rejection on the first failing member. Staged batch inserts
// are not swept: each is fully checked by its own insert operation.
// Like all validation this is a prediction — cross-class propagation
// (an extent-reading constraint attached to a class outside the mutated
// object's set) is left to the authoritative local commit. The sweep is
// the one validation loop whose work grows with extent size, so the
// batch context is checked as it scans; cancellation aborts with
// ctx.Err().
func (e *Engine) sweepExtentChecks(st *txState, oc objectCheck, excludeID int, detail string, out *[]Rejection, stats *ValidateStats) error {
	env := &st.sweep
	for _, cls := range oc.classes {
		for i, g := range e.res.View.Extent(cls) {
			if i%ctxCheckRows == 0 && st.ctx.Err() != nil {
				return st.ctx.Err()
			}
			if st.deleted[g.ID] || g.ID == excludeID {
				continue
			}
			stats.PairsChecked++
			env.Self = st.view(g)
			ok, err := env.EvalBool(oc.gc.Expr)
			if err != nil {
				continue
			}
			if !ok {
				*out = append(*out, Rejection{
					Constraint: oc.gc,
					Detail:     detail + " (g" + strconv.Itoa(g.ID) + " in " + cls + ")",
				})
				return nil // one witness per constraint is enough
			}
		}
	}
	return nil
}

// stagedKeys files a batch's staged writes under one class and key
// attributes, so a key check probes them by key. Filing only catches
// up: a staged insert never changes once staged, and an update staged
// since the last check is re-filed from txState.updated, so each staged
// write's key is computed once per filing, not once per check.
type stagedKeys struct {
	inserts  map[string]bool // key strings of the class's staged inserts
	nInserts int             // how many of txState.inserts[class] are filed
	// overlay files every member of the class the batch updated under
	// its overlaid key; filed holds the key each is filed under (none
	// for a null or absent key).
	overlay  map[string][]*core.GObj
	filed    map[int]string
	nUpdated int // how many of txState.updated are filed
}

// stagedFor returns the staged writes filed under the class and key
// attributes, caught up with the batch, or nil when the batch has
// staged no insert into the class and no update.
func (s *txState) stagedFor(kc keyCheck) *stagedKeys {
	class, attrs := kc.class, kc.attrs
	ins := s.inserts[class]
	if len(ins) == 0 && len(s.updated) == 0 {
		return nil
	}
	sk := s.staged[kc.sig]
	if sk == nil {
		sk = &stagedKeys{inserts: map[string]bool{}, overlay: map[string][]*core.GObj{}, filed: map[int]string{}}
		if s.staged == nil {
			s.staged = map[string]*stagedKeys{}
		}
		s.staged[kc.sig] = sk
	}
	for _, o := range ins[sk.nInserts:] {
		s.e.counters.keyStaged.Add(1)
		if k, ok := expr.KeyString(o, attrs); ok {
			sk.inserts[k] = true
		}
	}
	sk.nInserts = len(ins)
	for _, id := range s.updated[sk.nUpdated:] {
		if g, ok := s.e.res.View.ByID(id); ok && g.InClass(class) {
			sk.refile(s, g, attrs)
		}
	}
	sk.nUpdated = len(s.updated)
	return sk
}

// refile files an updated member under its current overlaid key.
func (sk *stagedKeys) refile(s *txState, g *core.GObj, attrs []string) {
	if old, ok := sk.filed[g.ID]; ok {
		if hs := slices.DeleteFunc(sk.overlay[old], func(h *core.GObj) bool { return h == g }); len(hs) > 0 {
			sk.overlay[old] = hs
		} else {
			delete(sk.overlay, old)
		}
		delete(sk.filed, g.ID)
	}
	s.e.counters.keyStaged.Add(1)
	if k, ok := expr.KeyString(s.view(g), attrs); ok {
		sk.overlay[k] = append(sk.overlay[k], g)
		sk.filed[g.ID] = k
	}
}

// findKeyHolder looks for another object holding the proposed object's
// key in the overlaid extent (exclude skips the object being updated,
// whose old key is irrelevant). It returns the conflicting object's view
// ID (0 for a staged insert) and whether a conflict exists. Live
// holders are looked for first, then the batch's staged inserts: the
// operation under validation is not yet staged (Validate stages it only
// after this check), so every staged insert here is a previous one.
func (s *txState) findKeyHolder(kc keyCheck, obj expr.Object, exclude *core.GObj) (int, bool) {
	key, ok := expr.KeyString(obj, kc.attrs)
	if !ok {
		return 0, false // null/absent key attributes never conflict (EvalKey skips them)
	}
	sk := s.stagedFor(kc)
	id, found, decided := s.indexedHolder(kc, key, exclude, sk)
	if !decided {
		id, found = s.scanHolder(kc.class, kc.attrs, key, exclude)
	}
	if found {
		return id, true
	}
	return 0, sk != nil && sk.inserts[key]
}

// indexedHolder answers the live half of findKeyHolder from the key
// index plus the batch's staged updates filed by key (sk, nil when the
// batch has staged none). The index is current with the live view
// (applyShipped maintains it) but files stored keys, not overlaid ones,
// so a member the batch updated counts only under its overlaid key,
// from sk's overlay. Exclude and the staged deletes drop out. The
// index decides alone when at most one holder is left; otherwise, and
// with UseIndexes off, the extent scan decides, which keeps the
// reported holder, the first in extent order, identical to the scan's.
func (s *txState) indexedHolder(kc keyCheck, key string, exclude *core.GObj, sk *stagedKeys) (id int, found, decided bool) {
	e := s.e
	if !e.UseIndexes {
		return 0, false, false
	}
	var hit *core.GObj
	holders := 0
	consider := func(g *core.GObj) {
		e.counters.keyVisited.Add(1)
		if g == exclude || s.deleted[g.ID] {
			return
		}
		hit = g
		holders++
	}
	for _, g := range e.keyIndex(kc).holders[key] {
		if _, staged := s.post[g.ID]; staged {
			e.counters.keyVisited.Add(1)
			continue // filed under its overlaid key: considered below
		}
		consider(g)
	}
	if sk != nil {
		for _, g := range sk.overlay[key] {
			consider(g)
		}
	}
	if holders > 1 {
		return 0, false, false
	}
	if hit == nil {
		return 0, false, true
	}
	return hit.ID, true, true
}

// scanHolder is the reference key check: the first live member, in
// extent order, whose overlaid key matches.
func (s *txState) scanHolder(class string, attrs []string, key string, exclude *core.GObj) (int, bool) {
	for _, g := range s.e.res.View.Extent(class) {
		s.e.counters.keyVisited.Add(1)
		if g == exclude || s.deleted[g.ID] {
			continue
		}
		if k, ok := expr.KeyString(s.view(g), attrs); ok && k == key {
			return g.ID, true
		}
	}
	return 0, false
}

// keyIndex is Validate's key-holder index for one (class, key
// attributes): every live member of the class's extent filed under its
// KeyString encoding. Unlike the extent indexes it lives beside the live
// view, not in a snapshot: built on first use under e.mu (either half,
// serialised by e.kmu), kept current by applyShipped under the write
// lock, and dropped whenever the live view changes some other way —
// Rebind and applyShipped's error paths.
type keyIndex struct {
	class   string
	attrs   []string
	holders map[string][]*core.GObj
}

func (ix *keyIndex) add(g *core.GObj) {
	if k, ok := expr.KeyString(g, ix.attrs); ok {
		ix.holders[k] = append(ix.holders[k], g)
	}
}

func (ix *keyIndex) remove(g *core.GObj) {
	k, ok := expr.KeyString(g, ix.attrs)
	if !ok {
		return
	}
	if hs := slices.DeleteFunc(ix.holders[k], func(h *core.GObj) bool { return h == g }); len(hs) > 0 {
		ix.holders[k] = hs
	} else {
		delete(ix.holders, k)
	}
}

// keyIndex returns (building on first use) the key index of a key
// check's class and key attributes. Caller holds e.mu.
func (e *Engine) keyIndex(kc keyCheck) *keyIndex {
	e.kmu.Lock()
	defer e.kmu.Unlock()
	if ix := e.keys[kc.sig]; ix != nil {
		return ix
	}
	ix := &keyIndex{class: kc.class, attrs: kc.attrs, holders: map[string][]*core.GObj{}}
	ext := e.res.View.Extent(kc.class)
	for _, g := range ext {
		ix.add(g)
	}
	e.counters.keyFiled.Add(int64(len(ext)))
	if e.keys == nil {
		e.keys = map[string]*keyIndex{}
	}
	e.keys[kc.sig] = ix
	return ix
}

// fileKeys files (add) or unfiles (!add) a live member in every key
// index of a class it belongs to. Caller holds e.mu (write).
func (e *Engine) fileKeys(g *core.GObj, add bool) {
	for _, ix := range e.keys {
		if !g.InClass(ix.class) {
			continue
		}
		if add {
			ix.add(g)
			e.counters.keyFiled.Add(1)
		} else {
			ix.remove(g)
		}
	}
}

// footprintTouched reports whether a constraint's attribute footprint
// intersects the touched attributes.
func footprintTouched(footprint map[string]bool, touched map[string]object.Value) bool {
	for a := range touched {
		if footprint[a] {
			return true
		}
	}
	return false
}

// keyTouched reports whether any key attribute is assigned.
func keyTouched(attrs []string, touched map[string]object.Value) bool {
	for _, a := range attrs {
		if _, ok := touched[a]; ok {
			return true
		}
	}
	return false
}

func copyAttrs(m map[string]object.Value) map[string]object.Value {
	cp := make(map[string]object.Value, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}

// CheckAll exhaustively validates the integrated view: every scope-all
// object constraint against every member of every class, and every key
// constraint over every extent. It is the reference Validate's
// delta restriction is measured against (and a consistency check in its
// own right, mirroring store.CheckAll at the federated level).
func (e *Engine) CheckAll() ([]Rejection, ValidateStats) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []Rejection
	var stats ValidateStats
	classes := append([]string{}, e.res.View.ClassNames...)
	sort.Strings(classes)
	env := e.res.View.Env(nil)
	for _, class := range classes {
		cc := e.consFor(class)
		if len(cc.objectGC) == 0 && len(cc.keys) == 0 {
			continue
		}
		ext := e.res.View.Extent(class)
		for _, gc := range cc.objectGC {
			stats.ConstraintsChecked++
			for _, g := range ext {
				stats.PairsChecked++
				env.Self = g
				ok, err := env.EvalBool(gc.Expr)
				if err != nil {
					continue
				}
				if !ok {
					out = append(out, Rejection{
						Constraint: gc,
						Detail:     fmt.Sprintf("violated by g%d in %s", g.ID, class),
					})
				}
			}
		}
		for _, gc := range cc.keys {
			k := gc.Expr.(expr.Key)
			stats.ConstraintsChecked++
			stats.PairsChecked += len(ext)
			objs := make([]expr.Object, len(ext))
			for i, g := range ext {
				objs[i] = g
			}
			holds, err := expr.EvalKey(objs, k.Attrs)
			if err == nil && !holds {
				out = append(out, Rejection{
					Constraint: gc,
					Detail:     fmt.Sprintf("duplicate key %v in %s", k.Attrs, class),
				})
			}
		}
	}
	return out, stats
}

// shippedOp is one locally committed batch operation awaiting
// application to the integrated view: the staged mutation, its
// update/delete target, and (for inserts) the reserved OID and the
// member database it landed in.
type shippedOp struct {
	op  Mutation
	g   *core.GObj
	oid object.OID
	db  string
}

// applyShipped applies a locally committed batch to the integrated view
// in batch order, collecting the affected classes and the touched refs
// (an insert's, and a target's before it is detached or deleted) for
// ONE publication at the end — concurrent readers observe the batch
// atomically, never a torn prefix, and the snapshot is current when the
// caller releases the lock. It is the one place Ship and Reconcile
// change the live view, so it also keeps the key indexes current: a
// target's keys leave them before the view changes and the inserted or
// updated object's keys join after. Caller holds e.mu (write).
func (e *Engine) applyShipped(applies []shippedOp) error {
	var affected []string
	var touched []object.Ref
	fork := false
	// fail republishes every class and drops the key indexes: the failed
	// application may have left the live view part-way through an
	// operation, so the affected-class set is uncertain.
	fail := func(err error) error {
		e.keys = nil
		e.publishStructuralLocked(e.res.View.ClassNames)
		return err
	}
	for i, ap := range applies {
		switch ap.op.Kind {
		case MutInsert:
			g, err := e.res.View.ApplyInsert(ap.op.Class, ap.op.Attrs, object.Ref{DB: ap.db, OID: ap.oid})
			if err != nil {
				return fail(fmt.Errorf("op %d committed locally but not applied to the view: %w", i, err))
			}
			e.fileKeys(g, true)
			touched = append(touched, e.res.View.RefsOf(g)...)
			affected = append(affected, classNames(g)...)
		case MutUpdate:
			// Re-resolve: an earlier operation of this batch may have
			// detached (or removed) the object staged as ap.g.
			target := ap.g
			if cur, ok := e.res.View.ByID(ap.op.ID); ok {
				target = cur
			}
			// The target keeps its classes and keys; the clone takes
			// the new ones, reclassification included. Its refs resolve
			// to the clone from this publication on.
			e.fileKeys(target, false)
			touched = append(touched, e.res.View.RefsOf(target)...)
			clone := e.res.View.DetachForUpdate(target)
			_, changed, err := e.res.View.ApplyUpdate(clone, ap.op.Attrs)
			if err != nil {
				return fail(fmt.Errorf("op %d committed locally but not fully applied to the view: %w", i, err))
			}
			e.fileKeys(clone, true)
			fork = true
			affected = append(affected, classNames(clone)...)
			affected = append(affected, changed...)
		case MutDelete:
			target := ap.g
			if cur, ok := e.res.View.ByID(ap.op.ID); ok {
				target = cur
			}
			e.fileKeys(target, false)
			touched = append(touched, e.res.View.RefsOf(target)...)
			classes, err := e.res.View.ApplyDelete(target)
			if err != nil {
				return fail(fmt.Errorf("op %d committed locally but not applied to the view: %w", i, err))
			}
			fork = true
			affected = append(affected, classes...)
		}
	}
	e.publishDeltaLocked(affected, touched, fork)
	return nil
}

// classNames returns a copy of the object's classes, which the caller
// may sort or extend.
func classNames(g *core.GObj) []string { return slices.Clone(g.Classes) }
