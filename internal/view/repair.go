package view

import (
	"fmt"
	"math"
	"strconv"

	"interopdb/internal/expr"
	"interopdb/internal/logic"
	"interopdb/internal/object"
)

// Minimal-change repair proposals for rejected mutations. When a
// mutation violates a derived global constraint the engine does not just
// say no: it searches the constraint's restriction structure for the
// smallest attribute adjustment that would make the proposed state
// acceptable, and for key conflicts it proposes deleting the conflicting
// tuple — the minimal-change integrity-maintenance discipline of
// Chomicki & Marcinkowski's tuple-deletion repairs, applied at the
// integrated view. Every proposal is verified before it is surfaced: the
// repaired state is re-evaluated against ALL of the class's object
// constraints, so a repair never trades one violation for another.

// RepairKind enumerates the repair proposal kinds.
type RepairKind int

// Repair kinds.
const (
	// RepairSetAttr proposes assigning Attr := Value on the mutated
	// object (the smallest adjustment restoring consistency).
	RepairSetAttr RepairKind = iota
	// RepairDeleteTuple proposes deleting the existing conflicting tuple
	// (view object ID) so the rejected mutation's key becomes free.
	RepairDeleteTuple
)

// String returns the kind name.
func (k RepairKind) String() string {
	switch k {
	case RepairSetAttr:
		return "set-attr"
	case RepairDeleteTuple:
		return "delete-tuple"
	default:
		return fmt.Sprintf("repair(%d)", int(k))
	}
}

// Repair is one verified minimal-change proposal attached to a
// Rejection.
type Repair struct {
	Kind  RepairKind
	Attr  string       // RepairSetAttr: the attribute to adjust
	Value object.Value // RepairSetAttr: the proposed value
	ID    int          // RepairDeleteTuple: the conflicting view object
	Text  string       // human-readable rendering
}

// String returns the rendering.
func (r Repair) String() string { return r.Text }

// proposeConstraintRepairs derives repair candidates for a violated
// object constraint from its restriction structure ([guard implies]
// attr ⊙ const or attr in {…}), verifies each against every object
// constraint of the mutated object's class group (allCons), and returns
// the survivors — smallest adjustment first.
func (e *Engine) proposeConstraintRepairs(violated expr.Node, allCons []expr.Node, post expr.Object, env *expr.Env) []Repair {
	r, ok := logic.ExtractRestriction(violated)
	if !ok || pathDotted(r.Path) {
		return nil
	}
	type candidate struct {
		attr string
		val  object.Value
		dist float64
	}
	var cands []candidate
	cur, _ := post.Get(r.Path)

	// Body repairs: move the restricted attribute to the nearest
	// admissible value.
	if r.IsSet() {
		for _, elem := range r.Set.Elems() {
			if elem.Kind() == object.KindNull {
				continue
			}
			cands = append(cands, candidate{attr: r.Path, val: elem, dist: valueDistance(cur, elem)})
		}
	} else if v := boundaryValue(r.Op, r.Val); v != nil {
		cands = append(cands, candidate{attr: r.Path, val: v, dist: valueDistance(cur, v)})
	}

	// Guard repair: when the constraint is guarded (g implies body),
	// falsifying a boolean equality guard is the other minimal escape
	// (the paper's ref?=true implies rating>=7: either raise the rating
	// or clear the refereed flag).
	if r.Guard != nil {
		if gr, ok := logic.ExtractRestriction(r.Guard); ok && !pathDotted(gr.Path) && !gr.IsSet() && gr.Op == expr.OpEq {
			if b, isBool := gr.Val.(object.Bool); isBool {
				cands = append(cands, candidate{attr: gr.Path, val: object.Bool(!bool(b)), dist: 1})
			}
		}
	}

	// Verify: the repaired state must satisfy every object constraint of
	// the class, not just the violated one.
	var out []Repair
	for len(cands) > 0 {
		best := 0
		for i := range cands {
			if cands[i].dist < cands[best].dist {
				best = i
			}
		}
		c := cands[best]
		cands = append(cands[:best], cands[best+1:]...)
		repaired := overlayObj{base: post, set: map[string]object.Value{c.attr: c.val}}
		if !e.repairHolds(allCons, repaired, env) {
			continue
		}
		out = append(out, Repair{
			Kind:  RepairSetAttr,
			Attr:  c.attr,
			Value: c.val,
			Text:  "set " + c.attr + " := " + c.val.String(),
		})
		if len(out) == 2 { // at most two proposals: nearest body + guard escape
			break
		}
	}
	return out
}

// repairHolds re-evaluates every object constraint of the class group
// on the repaired state.
func (e *Engine) repairHolds(allCons []expr.Node, repaired expr.Object, env *expr.Env) bool {
	renv := &expr.Env{
		Self:     repaired,
		Declared: env.Declared,
		Consts:   env.Consts,
		Ext:      env.Ext,
		SelfExt:  env.SelfExt,
		Deref:    env.Deref,
	}
	for _, c := range allCons {
		ok, err := renv.EvalBool(c)
		if err != nil {
			continue
		}
		if !ok {
			return false
		}
	}
	return true
}

// keyRepairs builds the tuple-deletion proposal for a key conflict. A
// conflict with a staged (not yet shipped) insert has no view ID and no
// deletable tuple — the repair there is dropping one of the staged
// operations, which only the caller can do.
func keyRepairs(conflictID int) []Repair {
	if conflictID == 0 {
		return nil
	}
	return []Repair{{
		Kind: RepairDeleteTuple,
		ID:   conflictID,
		Text: "delete conflicting tuple g" + strconv.Itoa(conflictID),
	}}
}

// boundaryValue returns the admissible value nearest the constraint
// boundary for a comparison restriction (nil when none is canonical:
// strict real bounds have no nearest member, != has no single target).
func boundaryValue(op expr.Op, c object.Value) object.Value {
	switch op {
	case expr.OpEq, expr.OpGe, expr.OpLe:
		return c
	case expr.OpGt:
		if i, ok := c.(object.Int); ok {
			return object.Int(i + 1)
		}
	case expr.OpLt:
		if i, ok := c.(object.Int); ok {
			return object.Int(i - 1)
		}
	}
	return nil
}

// valueDistance orders repair candidates by how far they move the
// current value (numeric distance when both are numeric; equal values
// are distance 0; everything else is a unit step).
func valueDistance(cur, proposed object.Value) float64 {
	if cur == nil {
		return 1
	}
	if cur.Equal(proposed) {
		return 0
	}
	a, aok := numeric(cur)
	b, bok := numeric(proposed)
	if aok && bok {
		return math.Abs(a - b)
	}
	return 1
}

func numeric(v object.Value) (float64, bool) {
	switch x := v.(type) {
	case object.Int:
		return float64(x), true
	case object.Real:
		return float64(x), true
	default:
		return 0, false
	}
}

func pathDotted(p string) bool {
	for i := 0; i < len(p); i++ {
		if p[i] == '.' {
			return true
		}
	}
	return false
}
