package experiments

import (
	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/object"
	"interopdb/internal/schema"
)

// The comparison systems of B5:
//
//   - class-based: traditional schema integration in the style of
//     [BLN86], where a designer asserts class correspondences and whole
//     extensions are merged, without instance-level comparison rules;
//   - union-all: constraint handling in the style the paper attributes to
//     existing work ([AQF95], [RPG95]) — every component constraint is
//     carried to the integrated view as if objective.
//
// (The third, drop-all — no constraints on the view — is the engine with
// UseConstraints off; B1 measures it.)

// classCorrespondence asserts that a local and a remote class describe
// the same real-world concept (the class-level assumption the paper
// argues is typically unattainable).
type classCorrespondence struct {
	local, remote string
}

// classBasedClassification classifies every remote object of the
// corresponded classes under the local class wholesale, and returns for
// each remote object the set of local classes it lands in.
func classBasedClassification(res *core.Result, corrs []classCorrespondence) map[object.Ref][]string {
	out := map[object.Ref][]string{}
	for _, corr := range corrs {
		for _, o := range res.Conformed.Extent(core.RemoteSide, corr.remote) {
			out[o.Src] = append(out[o.Src], corr.local)
		}
	}
	return out
}

// classificationQuality compares a class-based classification against
// the instance-based ground truth (the global view's classification
// driven by the Sim/Eq rules): a remote object assigned to local class C
// counts as correct iff the instance-based view also put it in C.
type classificationQuality struct {
	assignments, correct int
	// missed counts (remote object, local class) memberships present in
	// the instance-based view but absent from the class-based one.
	missed int
}

func (q classificationQuality) precision() float64 {
	if q.assignments == 0 {
		return 1
	}
	return float64(q.correct) / float64(q.assignments)
}

func (q classificationQuality) recall() float64 {
	if d := q.correct + q.missed; d > 0 {
		return float64(q.correct) / float64(d)
	}
	return 1
}

// compareClassification measures a class-based classification against
// the instance-based view, counting misses only in localClasses.
func compareClassification(res *core.Result, classBased map[object.Ref][]string, localClasses []string) classificationQuality {
	var q classificationQuality
	truth := map[object.Ref]*core.GObj{}
	for _, o := range res.Conformed.AllObjects(core.RemoteSide) {
		if g, ok := res.View.Deref(o.Src); ok {
			truth[o.Src] = g.(*core.GObj)
		}
	}
	for ref, classes := range classBased {
		for _, c := range classes {
			q.assignments++
			if g := truth[ref]; g != nil && g.InClass(c) {
				q.correct++
			}
		}
	}
	for ref, g := range truth {
		for _, c := range localClasses {
			if g.InClass(c) && !contains(classBased[ref], c) {
				q.missed++
			}
		}
	}
	return q
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// falseRejects counts global objects of the class that satisfy the
// derived (paper) constraint set but violate the union-all set — every
// perfect object constraint either side declares on the class's origin
// (or, naively, on a same-named class), treated as objective. These are
// valid integrated states the naive approach would reject.
func falseRejects(res *core.Result, class string) (rejected, total int) {
	var union []expr.Node
	if org, ok := res.View.Origin[class]; ok {
		for _, side := range []core.Side{core.LocalSide, core.RemoteSide} {
			name := class
			if org.Side == side {
				name = org.Class
			}
			for _, con := range res.Conformed.ConsOn(side, name, schema.ObjectConstraint) {
				if !con.Imperfect {
					union = append(union, con.Expr)
				}
			}
		}
	}
	derived := res.Derivation.GlobalFor(class, core.ScopeAll, core.ScopeMerged)
next:
	for _, g := range res.View.Extent(class) {
		total++
		env := res.View.Env(g)
		for _, gc := range derived {
			if gc.Kind != schema.ObjectConstraint || gc.Scope == core.ScopeMerged && !g.Merged() {
				continue
			}
			if ok, err := env.EvalBool(gc.Expr); err == nil && !ok {
				continue next
			}
		}
		for _, n := range union {
			if ok, err := env.EvalBool(n); err == nil && !ok {
				rejected++
				break
			}
		}
	}
	return rejected, total
}
