// Package logic implements the constraint-reasoning engine used by the
// integration pipeline: satisfiability and entailment checks over the
// quantifier-free fragment of the constraint language (comparisons against
// constants, comparisons between attributes, finite-set membership and
// boolean structure), plus the constraint-normalisation and restriction-
// extraction utilities of §3 and §5 of the paper.
//
// The solver is sound: a No from Satisfiable, or a Yes from Entails, is
// always correct. It is complete on the fragment above with two documented
// exceptions (integer gap reasoning across attribute-to-attribute
// inequalities, and atoms outside the fragment such as contains(), which
// are treated as opaque propositional variables). Whenever an approximate
// answer would otherwise be returned, the solver answers Unknown, and the
// integration layer treats Unknown conservatively.
package logic

import (
	"fmt"

	"interopdb/internal/expr"
	"interopdb/internal/object"
)

// Verdict is the tri-state result of a reasoning query.
type Verdict int

// Verdicts. Unknown means the query falls outside the decidable fragment
// (or exceeded the work limit) — callers must treat it conservatively.
const (
	Unknown Verdict = iota
	Yes
	No
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Yes:
		return "yes"
	case No:
		return "no"
	default:
		return "unknown"
	}
}

// atomKind enumerates the theory atoms.
type atomKind int

const (
	atomCmp    atomKind = iota // path op const
	atomVarCmp                 // path op path
	atomMember                 // path in {finite set}
	atomOpaque                 // uninterpreted boolean (contains(...), etc.)
)

// atom is a theory literal before negation.
type atom struct {
	kind atomKind
	path string
	op   expr.Op      // for atomCmp / atomVarCmp
	val  object.Value // for atomCmp
	rhs  string       // for atomVarCmp
	set  object.Set   // for atomMember
	key  string       // for atomOpaque: canonical text
}

// lit is a possibly negated atom.
type lit struct {
	a   atom
	neg bool
}

// form is the NNF propositional skeleton: conjunctions, disjunctions and
// literals. An empty conj is true; an empty disj is false.
type form interface{ isForm() }

type conj []form

func (conj) isForm() {}

type disj []form

func (disj) isForm() {}

type leaf lit

func (leaf) isForm() {}

var (
	formTrue  = conj{}
	formFalse = disj{}
)

// convErr marks a node that cannot be converted to the fragment.
type convErr struct{ msg string }

func (e *convErr) Error() string { return "outside fragment: " + e.msg }

// converter tracks whether any opaque atoms were produced; satisfiable
// answers involving opaque atoms are downgraded to Unknown.
type converter struct {
	sawOpaque bool
}

// toForm converts an expression to NNF under the given polarity.
func (c *converter) toForm(n expr.Node, neg bool) (form, error) {
	switch n := n.(type) {
	case expr.Lit:
		if b, ok := n.Val.(object.Bool); ok {
			if bool(b) != neg {
				return formTrue, nil
			}
			return formFalse, nil
		}
		return nil, &convErr{"non-boolean literal " + n.String()}
	case expr.Unary:
		if n.Op == expr.OpNot {
			return c.toForm(n.X, !neg)
		}
		return nil, &convErr{"unary " + n.Op.String()}
	case expr.Binary:
		return c.binToForm(n, neg)
	case expr.In:
		return c.inToForm(n, neg)
	case expr.Ident, expr.Path:
		// A bare boolean attribute used as a formula: ref?  ≡  ref? = true.
		if p, ok := expr.PathString(n); ok {
			return leaf{a: atom{kind: atomCmp, path: p, op: expr.OpEq, val: object.Bool(true)}, neg: neg}, nil
		}
		return nil, &convErr{"bare non-path " + n.String()}
	case expr.Call:
		c.sawOpaque = true
		return leaf{a: atom{kind: atomOpaque, key: n.String()}, neg: neg}, nil
	default:
		return nil, &convErr{fmt.Sprintf("%T (%s)", n, n)}
	}
}

func (c *converter) binToForm(n expr.Binary, neg bool) (form, error) {
	switch n.Op {
	case expr.OpAnd, expr.OpOr, expr.OpImplies:
		l := n.L
		r := n.R
		lneg, rneg := neg, neg
		isAnd := n.Op == expr.OpAnd
		if n.Op == expr.OpImplies { // a→b ≡ ¬a ∨ b
			isAnd = false
			lneg = !neg
		}
		lf, err := c.toForm(l, lneg)
		if err != nil {
			return nil, err
		}
		rf, err := c.toForm(r, rneg)
		if err != nil {
			return nil, err
		}
		// De Morgan under negation.
		if isAnd != neg {
			return conj{lf, rf}, nil
		}
		return disj{lf, rf}, nil
	default:
		if !n.Op.IsComparison() {
			return nil, &convErr{"operator " + n.Op.String()}
		}
		return c.cmpToForm(n, neg)
	}
}

// cmpToForm converts comparisons: path⊙const, const⊙path, path⊙path.
// Constant sides may be foldable arithmetic over literals.
func (c *converter) cmpToForm(n expr.Binary, neg bool) (form, error) {
	op := n.Op
	if neg {
		op = op.Negate()
	}
	lp, lIsPath := expr.PathString(n.L)
	rp, rIsPath := expr.PathString(n.R)
	lv, lIsConst := FoldConst(n.L)
	rv, rIsConst := FoldConst(n.R)
	switch {
	case lIsPath && rIsConst:
		return leaf{a: atom{kind: atomCmp, path: lp, op: op, val: rv}}, nil
	case lIsConst && rIsPath:
		return leaf{a: atom{kind: atomCmp, path: rp, op: op.Flip(), val: lv}}, nil
	case lIsPath && rIsPath:
		return leaf{a: atom{kind: atomVarCmp, path: lp, op: op, rhs: rp}}, nil
	case lIsConst && rIsConst:
		res, err := staticCompare(op, lv, rv)
		if err != nil {
			return nil, &convErr{err.Error()}
		}
		if res {
			return formTrue, nil
		}
		return formFalse, nil
	default:
		c.sawOpaque = true
		key := expr.Binary{Op: n.Op, L: n.L, R: n.R}.String()
		return leaf{a: atom{kind: atomOpaque, key: key}, neg: neg}, nil
	}
}

func staticCompare(op expr.Op, l, r object.Value) (bool, error) {
	switch op {
	case expr.OpEq:
		return l.Equal(r), nil
	case expr.OpNe:
		return !l.Equal(r), nil
	}
	cv, ok := object.Compare(l, r)
	if !ok {
		return false, fmt.Errorf("incomparable constants %s, %s", l, r)
	}
	switch op {
	case expr.OpLt:
		return cv < 0, nil
	case expr.OpLe:
		return cv <= 0, nil
	case expr.OpGt:
		return cv > 0, nil
	case expr.OpGe:
		return cv >= 0, nil
	}
	return false, fmt.Errorf("bad comparison op")
}

func (c *converter) inToForm(n expr.In, neg bool) (form, error) {
	p, ok := expr.PathString(n.X)
	if !ok {
		c.sawOpaque = true
		return leaf{a: atom{kind: atomOpaque, key: n.String()}, neg: neg}, nil
	}
	sv, ok := FoldConst(n.Set)
	if !ok {
		c.sawOpaque = true
		return leaf{a: atom{kind: atomOpaque, key: n.String()}, neg: neg}, nil
	}
	set, ok := sv.(object.Set)
	if !ok {
		return nil, &convErr{"in over non-set constant"}
	}
	effNeg := n.Neg != neg
	return leaf{a: atom{kind: atomMember, path: p, set: set}, neg: effNeg}, nil
}

// FoldConst evaluates a closed expression (literals, set literals and
// arithmetic over numbers) to a value. It returns false for anything
// that mentions an attribute or variable, and for arithmetic the
// walker would reject (division by zero, Int overflow). Arithmetic is
// expr's own, so a folded constant is exactly what the walker computes.
func FoldConst(n expr.Node) (object.Value, bool) {
	switch n := n.(type) {
	case expr.Lit:
		return n.Val, true
	case expr.SetLit:
		elems := make([]object.Value, len(n.Elems))
		for i, e := range n.Elems {
			v, ok := FoldConst(e)
			if !ok {
				return nil, false
			}
			elems[i] = v
		}
		return object.NewSet(elems...), true
	case expr.Unary:
		if n.Op != expr.OpNeg {
			return nil, false
		}
		v, ok := foldNumber(n.X)
		if !ok {
			return nil, false
		}
		r, err := expr.Negate(v)
		return r, err == nil
	case expr.Binary:
		l, ok := foldNumber(n.L)
		if !ok {
			return nil, false
		}
		r, ok := foldNumber(n.R)
		if !ok {
			return nil, false
		}
		v, err := expr.Arith(n.Op, l, r)
		return v, err == nil
	default:
		return nil, false
	}
}

// foldNumber folds n to an Int or a Real; null, sets and other kinds
// are not folded through arithmetic.
func foldNumber(n expr.Node) (object.Value, bool) {
	v, ok := FoldConst(n)
	if !ok {
		return nil, false
	}
	if _, num := object.AsFloat(v); !num {
		return nil, false
	}
	return v, true
}
