package core

import (
	"fmt"
	"slices"

	"interopdb/internal/expr"
	"interopdb/internal/object"
)

// This file grows the integrated view in place for the full mutation
// lifecycle: ApplyInsert (merge.go) gained siblings ApplyUpdate and
// ApplyDelete, used by the view engine after a component-store commit so
// queries and validation reflect shipped mutations without
// re-integration. Like ApplyInsert, they work in the conformed (global)
// domain and do not re-run entity resolution or PropEq value conversion;
// what they DO re-run is Sim-rule classification, so an update that
// moves an object across a derived-class membership predicate (e.g. a
// proceedings whose ref? flips to true joining RefereedPubl) lands in
// the right extents. None of the Apply* methods are safe for concurrent
// use — the view engine serialises them behind its write lock.

// ByID resolves a global object by its integrated-view ID.
func (v *GlobalView) ByID(id int) (*GObj, bool) {
	o, ok := v.byRef[object.Ref{DB: "global", OID: object.OID(id)}]
	return o, ok
}

// ensureNextID initialises the ID counter past the current maximum.
// retract calls it before objects leave the list, so a deleted ID is
// counted and stays burned.
func (v *GlobalView) ensureNextID() {
	if v.nextID != 0 {
		return
	}
	v.nextID = 1
	for _, g := range v.Objects {
		if g.ID >= v.nextID {
			v.nextID = g.ID + 1
		}
	}
}

// nextObjectID allocates a fresh global ID. IDs are never reused: a
// deleted object's ID stays burned so stale references cannot alias a
// later insert.
func (v *GlobalView) nextObjectID() int {
	v.ensureNextID()
	id := v.nextID
	v.nextID++
	return id
}

// ApplyUpdate assigns the given attributes on a global object (partial
// update; attributes not mentioned are unchanged) and reclassifies it
// across the Sim-derived class memberships. It returns the previous
// values of the touched attributes (attrs absent before the update map to
// nil) and the names of every class whose extent gained or lost the
// object, so callers can maintain or invalidate per-class indexes.
//
// The new values are written to the global object and to all of its
// constituents: attrs must be in the conformed (global) domain, the same
// domain ApplyInsert stores and the view engine evaluates.
func (v *GlobalView) ApplyUpdate(g *GObj, attrs map[string]object.Value) (old map[string]object.Value, changed []string, err error) {
	if _, ok := v.byRef[g.Identity()]; !ok {
		return nil, nil, fmt.Errorf("object g%d is not part of the integrated view", g.ID)
	}
	old = make(map[string]object.Value, len(attrs))
	// A name the dictionary lacks extends it, with one copy: a member
	// store refuses undeclared attributes, but the view does not depend
	// on that.
	v.dict = v.dict.withSorted(attrs)
	for k, val := range attrs {
		old[k], _ = g.Get(k) // nil when previously absent
		v.setAttr(g, k, val)
		for _, m := range g.Parts {
			m.set(k, val)
		}
	}
	var r retraction
	changed, err = v.reclassify(g, &r, v.Conformed.ruleEnv())
	v.retract(&r)
	return old, changed, err
}

// ApplyDelete removes a global object from the integrated view: every
// class extent it belongs to, the object list, the derived-class member
// reports and the reference table (both its global identity and its
// constituents' source refs). It returns the names of the classes whose
// extents shrank. The removed object itself is left untouched — its
// Classes still name the extents it belonged to — so readers of a
// frozen snapshot that still holds it can keep serving its pre-delete
// state.
func (v *GlobalView) ApplyDelete(g *GObj) ([]string, error) {
	if _, ok := v.byRef[g.Identity()]; !ok {
		return nil, fmt.Errorf("object g%d is not part of the integrated view", g.ID)
	}
	var r retraction
	r.doom(g)
	v.retract(&r)
	return slices.Clone(g.Classes), nil
}

// retraction collects what a batch of changes takes out of the view —
// one deleted object, one reclassified object's lost memberships, or
// everything a departing member leaves behind — so that retract removes
// it in one pass per affected list instead of one scan per object.
type retraction struct {
	// doomed are the objects leaving the view altogether.
	doomed map[*GObj]bool
	// lost maps a class to the objects leaving its extent, the doomed
	// members included.
	lost map[string]map[*GObj]bool
}

// lose records that the object leaves one class extent. The caller owns
// the object's Classes (reclassification drops the membership from its
// fresh clone; a doomed object keeps its classes, see ApplyDelete).
func (r *retraction) lose(g *GObj, class string) {
	if r.lost == nil {
		r.lost = map[string]map[*GObj]bool{}
	}
	if r.lost[class] == nil {
		r.lost[class] = map[*GObj]bool{}
	}
	r.lost[class][g] = true
}

// doom records that the object leaves the view.
func (r *retraction) doom(g *GObj) {
	if r.doomed == nil {
		r.doomed = map[*GObj]bool{}
	}
	r.doomed[g] = true
	for _, cls := range g.Classes {
		r.lose(g, cls)
	}
}

// retract applies a retraction: ONE order-preserving filtering pass
// over each extent that loses members, over the member report of each
// derived class among them, and — when objects leave the view — over
// the object list; the doomed objects' identities and constituent
// sources leave the reference table, and their IDs stay burned.
func (v *GlobalView) retract(r *retraction) {
	for cls, gone := range r.lost {
		if ext, ok := v.classExt[cls]; ok {
			v.classExt[cls] = filterOut(ext, gone)
		}
	}
	v.eachMemberReport(func(name string, ids *[]int) {
		gone := r.lost[name]
		if len(gone) == 0 {
			return
		}
		drop := make(map[int]bool, len(gone))
		for g := range gone {
			drop[g.ID] = true
		}
		*ids = filterOut(*ids, drop)
	})
	if len(r.doomed) == 0 {
		return
	}
	v.ensureNextID() // count the doomed IDs before they vanish: never reused
	v.Objects = filterOut(v.Objects, r.doomed)
	for g := range r.doomed {
		delete(v.byRef, g.Identity())
		for _, m := range g.Parts {
			if cur, ok := v.byRef[m.Src]; ok && cur == g {
				delete(v.byRef, m.Src)
			}
		}
	}
}

// eachMemberReport visits the member list of every derived class: the
// virtual intersection subclasses, then the approximate superclasses.
func (v *GlobalView) eachMemberReport(visit func(name string, ids *[]int)) {
	for i := range v.VirtualSubclasses {
		visit(v.VirtualSubclasses[i].Name, &v.VirtualSubclasses[i].MemberIDs)
	}
	for i := range v.ApproxSupers {
		visit(v.ApproxSupers[i].Name, &v.ApproxSupers[i].MemberIDs)
	}
}

// filterOut removes the elements in drop from the list in place,
// keeping the order of the rest; the scan stops comparing once every
// element of drop has gone.
func filterOut[T comparable](list []T, drop map[T]bool) []T {
	out, left := list[:0], len(drop)
	for i, x := range list {
		if left == 0 {
			return append(out, list[i:]...)
		}
		if drop[x] {
			left--
			continue
		}
		out = append(out, x)
	}
	return out
}

// reclassify recomputes the object's predicate-dependent class
// memberships after an attribute update. Constituent-chain classes (the
// origin classes and their superclasses) are value-independent and kept;
// Sim-rule targets, approximate-similarity superclasses and virtual
// intersection subclasses are re-derived from the new attribute values.
// It returns the classes whose extents changed. Lattice edges (ISA) are
// integration-time artifacts and are not recomputed. env is the pass's
// ruleEnv.
func (v *GlobalView) reclassify(g *GObj, r *retraction, env *expr.Env) ([]string, error) {
	c := v.Conformed

	// Value-independent memberships: the constituents' conformed class
	// chains (classifyConstituents's rule, per object), over every
	// member side of the view.
	desired := map[string]bool{}
	for _, m := range g.Parts {
		for _, cn := range c.SchemaOf(m.Side).Supers(m.Class) {
			desired[v.GlobalName(m.Side, cn)] = true
		}
	}

	// Sim-rule memberships, re-evaluated against the updated constituents.
	type approxPending struct{ rule *SimRule }
	var approx []approxPending
	for _, r := range c.Spec.SimRules {
		match, err := v.simRuleHolds(r, g, env)
		if err != nil {
			return nil, err
		}
		targetSide := r.TargetSide()
		if r.Approximate() {
			// ext(Cv) ⊇ ext(C) ∪ matching sources: membership via the
			// target class is settled below, after strict rules ran.
			if match {
				desired[r.Virtual] = true
			}
			approx = append(approx, approxPending{rule: r})
			continue
		}
		if match {
			for _, cn := range c.SchemaOf(targetSide).Supers(r.Target) {
				desired[v.GlobalName(targetSide, cn)] = true
			}
		}
	}
	for _, ap := range approx {
		r := ap.rule
		if desired[v.GlobalName(r.TargetSide(), r.Target)] {
			desired[r.Virtual] = true
		}
	}

	// Virtual intersection subclasses: membership in both parents.
	for i := range v.VirtualSubclasses {
		vs := &v.VirtualSubclasses[i]
		if desired[vs.LocalClass] && desired[vs.RemoteClass] {
			desired[vs.Name] = true
		}
	}

	// Diff against the current membership. Gains join their extents (and
	// member reports) at once; losses leave the object now and its
	// extents and member reports when the caller retracts r.
	var changed []string
	for _, cls := range g.Classes {
		if !desired[cls] {
			r.lose(g, cls)
			changed = append(changed, cls)
		}
	}
	g.dropClasses(changed...)
	for cls := range desired {
		if g.InClass(cls) {
			continue
		}
		changed = append(changed, cls)
		if org, ok := v.Origin[cls]; ok {
			v.addToClass(g, org.Side, org.Class)
		} else {
			v.addVirtualMember(g, cls)
		}
		v.eachMemberReport(func(name string, ids *[]int) {
			if name == cls {
				*ids = append(*ids, g.ID)
			}
		})
	}
	return changed, nil
}

// simRuleHolds evaluates one Sim rule's conformed intraobject condition
// against the object's constituents on the rule's source side. The rule
// applies when any constituent whose class falls under the source class
// satisfies every conjunct (mirroring classifySim, which walks the
// source class's conformed extent). env is the pass's ruleEnv; the
// rule's variable is unbound again on return.
func (v *GlobalView) simRuleHolds(r *SimRule, g *GObj, env *expr.Env) (bool, error) {
	db := v.Conformed.SchemaOf(r.SrcSide)
	defer delete(env.Vars, r.SrcVar)
	for _, m := range g.PartsOf(r.SrcSide) {
		if !db.IsA(m.Class, r.SrcClass) {
			continue
		}
		env.Vars[r.SrcVar] = m
		match, err := condsHold(env, r.Conds)
		if err != nil {
			return false, fmt.Errorf("rule %s on g%d: %w", r.Raw.Name, g.ID, err)
		}
		if match {
			return true, nil
		}
	}
	return false, nil
}
