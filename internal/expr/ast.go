// Package expr implements the first-order constraint language used by the
// TM-style specifications of the paper: lexer, parser, type checker,
// evaluator and rewriting utilities.
//
// The fragment covers everything Figure 1 of the paper exercises:
//
//	ourprice <= shopprice
//	publisher in KNOWNPUBLISHERS
//	key isbn
//	(sum (collect x for x in self) over ourprice) < MAX
//	publisher.name='IEEE' implies ref?=true
//	forall p in Publisher exists i in Item | i.publisher = p
//	contains(title, 'Proceed')
//
// Identifiers may end in '?' (TM boolean attribute convention, e.g. ref?).
package expr

import (
	"fmt"
	"strings"

	"interopdb/internal/object"
)

// Op enumerates unary and binary operators.
type Op int

// Operators. Comparison, arithmetic and boolean connectives.
const (
	OpInvalid Op = iota
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpAnd
	OpOr
	OpImplies
	OpNot
	OpNeg
)

var opNames = map[Op]string{
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpAnd: "and", OpOr: "or", OpImplies: "implies", OpNot: "not", OpNeg: "-",
}

// String returns the surface syntax of the operator.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsComparison reports whether the operator is one of = != < <= > >=.
func (o Op) IsComparison() bool { return o >= OpEq && o <= OpGe }

// IsBool reports whether the operator is a boolean connective.
func (o Op) IsBool() bool { return o == OpAnd || o == OpOr || o == OpImplies || o == OpNot }

// Flip mirrors a comparison: a < b  ⇔  b > a.
func (o Op) Flip() Op {
	switch o {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return o
	}
}

// Negate returns the complementary comparison: ¬(a<b) ⇔ a>=b.
func (o Op) Negate() Op {
	switch o {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	default:
		return OpInvalid
	}
}

// Node is an AST node. Nodes are immutable after parsing; Rewrite builds
// fresh trees.
type Node interface {
	// String renders the node in the surface syntax.
	String() string
	isNode()
}

// Lit is a literal scalar value.
type Lit struct{ Val object.Value }

func (Lit) isNode() {}

// String implements Node.
func (n Lit) String() string { return n.Val.String() }

// SetLit is a set literal {e1, e2, ...}.
type SetLit struct{ Elems []Node }

func (SetLit) isNode() {}

// String implements Node.
func (n SetLit) String() string {
	parts := make([]string, len(n.Elems))
	for i, e := range n.Elems {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Ident is an unresolved name: a bound variable, `self`, an attribute of
// the implicit self, or a named constant such as KNOWNPUBLISHERS. The
// type checker resolves which.
type Ident struct{ Name string }

func (Ident) isNode() {}

// String implements Node.
func (n Ident) String() string { return n.Name }

// Path is attribute access recv.attr (recv may itself be a Path).
type Path struct {
	Recv Node
	Attr string
}

func (Path) isNode() {}

// String implements Node.
func (n Path) String() string { return n.Recv.String() + "." + n.Attr }

// Unary is a prefix operator application (not, unary minus).
type Unary struct {
	Op Op
	X  Node
}

func (Unary) isNode() {}

// String implements Node.
func (n Unary) String() string {
	if n.Op == OpNot {
		return "not (" + n.X.String() + ")"
	}
	return "-" + n.X.String()
}

// Binary is an infix operator application.
type Binary struct {
	Op   Op
	L, R Node
}

func (Binary) isNode() {}

// String implements Node.
func (n Binary) String() string {
	l, r := n.L.String(), n.R.String()
	if lb, ok := n.L.(Binary); ok {
		// implies is right-associative: a left child at equal precedence
		// must keep its parentheses to survive a reparse.
		if prec(lb.Op) < prec(n.Op) || (prec(lb.Op) == prec(n.Op) && n.Op == OpImplies) {
			l = "(" + l + ")"
		}
	}
	if rb, ok := n.R.(Binary); ok {
		// Left-associative operators need parentheses around an equal-
		// precedence right child; implies does not (it re-associates right).
		if prec(rb.Op) < prec(n.Op) || (prec(rb.Op) == prec(n.Op) && n.Op != OpImplies) {
			r = "(" + r + ")"
		}
	}
	return l + " " + n.Op.String() + " " + r
}

// prec returns binding strength for printing; higher binds tighter.
func prec(o Op) int {
	switch o {
	case OpImplies:
		return 1
	case OpOr:
		return 2
	case OpAnd:
		return 3
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return 4
	case OpAdd, OpSub:
		return 5
	case OpMul, OpDiv:
		return 6
	default:
		return 7
	}
}

// In is set membership: x in S, where S is a set literal, a named constant
// set, or a set-valued path.
type In struct {
	X   Node
	Set Node
	Neg bool // `not in`
}

func (In) isNode() {}

// String implements Node.
func (n In) String() string {
	op := " in "
	if n.Neg {
		op = " not in "
	}
	return n.X.String() + op + n.Set.String()
}

// Call is a builtin function application such as contains(title,'Proceed').
type Call struct {
	Fn   string
	Args []Node
}

func (Call) isNode() {}

// String implements Node.
func (n Call) String() string {
	parts := make([]string, len(n.Args))
	for i, a := range n.Args {
		parts[i] = a.String()
	}
	return n.Fn + "(" + strings.Join(parts, ",") + ")"
}

// Agg is a TM aggregate:
//
//	(avg (collect x for x in self) over rating)
//
// Fn is one of sum, avg, min, max, count. Src is the collection source
// (`self` = the class extension for class constraints, or a class name).
// Over is the attribute aggregated; empty for count.
type Agg struct {
	Fn   string
	Var  string // the collect variable, kept for faithful printing
	Src  Node
	Over string
}

func (Agg) isNode() {}

// String implements Node.
func (n Agg) String() string {
	s := "(" + n.Fn + " (collect " + n.Var + " for " + n.Var + " in " + n.Src.String() + ")"
	if n.Over != "" {
		s += " over " + n.Over
	}
	return s + ")"
}

// Binder is one quantifier binding: forall/exists v in Class.
type Binder struct {
	All   bool
	Var   string
	Class string
}

// Quant is a quantified formula with one or more binders:
//
//	forall p in Publisher exists i in Item | i.publisher = p
type Quant struct {
	Binders []Binder
	Body    Node
}

func (Quant) isNode() {}

// String implements Node.
func (n Quant) String() string {
	var b strings.Builder
	for i, bd := range n.Binders {
		if i > 0 {
			b.WriteByte(' ')
		}
		if bd.All {
			b.WriteString("forall ")
		} else {
			b.WriteString("exists ")
		}
		b.WriteString(bd.Var)
		b.WriteString(" in ")
		b.WriteString(bd.Class)
	}
	b.WriteString(" | ")
	b.WriteString(n.Body.String())
	return b.String()
}

// Key is the TM key constraint: `key isbn` (possibly composite).
type Key struct{ Attrs []string }

func (Key) isNode() {}

// String implements Node.
func (n Key) String() string { return "key " + strings.Join(n.Attrs, ", ") }

// Equal reports structural equality of two ASTs.
func Equal(a, b Node) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch a := a.(type) {
	case Lit:
		if b, ok := b.(Lit); ok {
			return a.Val.Equal(b.Val)
		}
	case SetLit:
		if b, ok := b.(SetLit); ok {
			if len(a.Elems) != len(b.Elems) {
				return false
			}
			for i := range a.Elems {
				if !Equal(a.Elems[i], b.Elems[i]) {
					return false
				}
			}
			return true
		}
	case Ident:
		if b, ok := b.(Ident); ok {
			return a.Name == b.Name
		}
	case Path:
		if b, ok := b.(Path); ok {
			return a.Attr == b.Attr && Equal(a.Recv, b.Recv)
		}
	case Unary:
		if b, ok := b.(Unary); ok {
			return a.Op == b.Op && Equal(a.X, b.X)
		}
	case Binary:
		if b, ok := b.(Binary); ok {
			return a.Op == b.Op && Equal(a.L, b.L) && Equal(a.R, b.R)
		}
	case In:
		if b, ok := b.(In); ok {
			return a.Neg == b.Neg && Equal(a.X, b.X) && Equal(a.Set, b.Set)
		}
	case Call:
		if b, ok := b.(Call); ok {
			if a.Fn != b.Fn || len(a.Args) != len(b.Args) {
				return false
			}
			for i := range a.Args {
				if !Equal(a.Args[i], b.Args[i]) {
					return false
				}
			}
			return true
		}
	case Agg:
		if b, ok := b.(Agg); ok {
			return a.Fn == b.Fn && a.Over == b.Over && Equal(a.Src, b.Src)
		}
	case Quant:
		if b, ok := b.(Quant); ok {
			if len(a.Binders) != len(b.Binders) {
				return false
			}
			for i := range a.Binders {
				if a.Binders[i] != b.Binders[i] {
					return false
				}
			}
			return Equal(a.Body, b.Body)
		}
	case Key:
		if b, ok := b.(Key); ok {
			if len(a.Attrs) != len(b.Attrs) {
				return false
			}
			for i := range a.Attrs {
				if a.Attrs[i] != b.Attrs[i] {
					return false
				}
			}
			return true
		}
	}
	return false
}

// Walk visits the tree pre-order; fn returning false prunes descent.
func Walk(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	switch n := n.(type) {
	case SetLit:
		for _, e := range n.Elems {
			Walk(e, fn)
		}
	case Path:
		Walk(n.Recv, fn)
	case Unary:
		Walk(n.X, fn)
	case Binary:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case In:
		Walk(n.X, fn)
		Walk(n.Set, fn)
	case Call:
		for _, a := range n.Args {
			Walk(a, fn)
		}
	case Agg:
		Walk(n.Src, fn)
	case Quant:
		Walk(n.Body, fn)
	}
}

// Rewrite rebuilds the tree bottom-up, applying fn to every node after its
// children have been rewritten. fn returning nil keeps the node.
func Rewrite(n Node, fn func(Node) Node) Node {
	if n == nil {
		return nil
	}
	var out Node
	switch n := n.(type) {
	case SetLit:
		elems := make([]Node, len(n.Elems))
		for i, e := range n.Elems {
			elems[i] = Rewrite(e, fn)
		}
		out = SetLit{Elems: elems}
	case Path:
		out = Path{Recv: Rewrite(n.Recv, fn), Attr: n.Attr}
	case Unary:
		out = Unary{Op: n.Op, X: Rewrite(n.X, fn)}
	case Binary:
		out = Binary{Op: n.Op, L: Rewrite(n.L, fn), R: Rewrite(n.R, fn)}
	case In:
		out = In{X: Rewrite(n.X, fn), Set: Rewrite(n.Set, fn), Neg: n.Neg}
	case Call:
		args := make([]Node, len(n.Args))
		for i, a := range n.Args {
			args[i] = Rewrite(a, fn)
		}
		out = Call{Fn: n.Fn, Args: args}
	case Agg:
		out = Agg{Fn: n.Fn, Var: n.Var, Src: Rewrite(n.Src, fn), Over: n.Over}
	case Quant:
		out = Quant{Binders: append([]Binder(nil), n.Binders...), Body: Rewrite(n.Body, fn)}
	default:
		out = n
	}
	if r := fn(out); r != nil {
		return r
	}
	return out
}

// PathString renders an attribute path relative to the implicit self,
// e.g. "publisher.name" for Path{Path{Ident(self)|Ident(attr)},...}. The
// second result is false when the node is not a self-rooted path.
func PathString(n Node) (string, bool) {
	switch n := n.(type) {
	case Ident:
		if n.Name == "self" || n.Name == "true" || n.Name == "false" {
			return "", false
		}
		return n.Name, true
	case Path:
		if id, ok := n.Recv.(Ident); ok && id.Name == "self" {
			return n.Attr, true
		}
		base, ok := PathString(n.Recv)
		if !ok {
			return "", false
		}
		return base + "." + n.Attr, true
	default:
		return "", false
	}
}

// AttrsUsed returns the set of self-rooted attribute paths mentioned by
// the formula (first segment of each path), e.g. {rating, publisher} for
// publisher.name='ACM' implies rating>=6. Bound quantifier/collect
// variables are excluded.
func AttrsUsed(n Node) map[string]bool {
	out := map[string]bool{}
	bound := map[string]bool{"self": true, "true": true, "false": true}
	var walk func(Node, map[string]bool)
	walk = func(n Node, bound map[string]bool) {
		switch n := n.(type) {
		case Ident:
			if !bound[n.Name] {
				out[n.Name] = true
			}
		case Path:
			// Only the root segment names a self attribute.
			root := n.Recv
			for {
				if p, ok := root.(Path); ok {
					root = p.Recv
					continue
				}
				break
			}
			if id, ok := root.(Ident); ok {
				if id.Name == "self" {
					// self.attr — the first path segment after self.
					cur := Node(n)
					var segs []string
					for {
						if p, ok := cur.(Path); ok {
							segs = append(segs, p.Attr)
							cur = p.Recv
							continue
						}
						break
					}
					out[segs[len(segs)-1]] = true
				} else if !bound[id.Name] {
					out[id.Name] = true
				}
			}
		case SetLit:
			for _, e := range n.Elems {
				walk(e, bound)
			}
		case Unary:
			walk(n.X, bound)
		case Binary:
			walk(n.L, bound)
			walk(n.R, bound)
		case In:
			walk(n.X, bound)
			walk(n.Set, bound)
		case Call:
			for _, a := range n.Args {
				walk(a, bound)
			}
		case Agg:
			nb := copyBound(bound)
			nb[n.Var] = true
			walk(n.Src, nb)
		case Quant:
			nb := copyBound(bound)
			for _, b := range n.Binders {
				nb[b.Var] = true
			}
			walk(n.Body, nb)
		case Key:
			for _, a := range n.Attrs {
				out[a] = true
			}
		}
	}
	walk(n, bound)
	return out
}

// UsesExtents reports whether the formula reads class extensions — a
// quantifier or an aggregate anywhere in the tree. Such a formula's truth
// value on one object can change when *other* objects are inserted,
// updated or deleted, so delta-restricted checking must re-evaluate it on
// extent-changing mutations even when the touched attributes don't
// intersect its attribute footprint. Pure self-formulas (no extent
// reads) depend only on the object's own state.
func UsesExtents(n Node) bool {
	uses := false
	Walk(n, func(x Node) bool {
		switch x.(type) {
		case Quant, Agg:
			uses = true
			return false
		}
		return !uses
	})
	return uses
}

// ForeignReads is AttrsUsed's sibling for what a formula reads beyond
// self's own attributes. classes names every class whose extension it
// ranges over: quantifier binders and collect sources, with "self" for a
// collect over, or a key on, the extension "self" denotes. attrs names
// every attribute it reads on an object other than self: each path
// segment after the first (read through a reference or a tuple), each
// attribute read through a bound variable or a non-self root, each
// aggregated attribute and each key attribute. Names are not resolved
// against a schema, so both sets over-approximate; a change that adds to
// or removes from none of the classes, and writes, creates or removes no
// object holding one of the attributes, leaves the formula's value on
// every unchanged object as it was.
func ForeignReads(n Node) (classes, attrs map[string]bool) {
	classes, attrs = map[string]bool{}, map[string]bool{}
	Walk(n, func(x Node) bool {
		switch x := x.(type) {
		case Path:
			// Every segment is foreign except the first one off self.
			p := x
			for {
				inner, ok := p.Recv.(Path)
				if !ok {
					break
				}
				attrs[p.Attr] = true
				p = inner
			}
			if id, ok := p.Recv.(Ident); !ok || id.Name != "self" {
				attrs[p.Attr] = true
			}
		case Quant:
			for _, b := range x.Binders {
				classes[b.Class] = true
			}
		case Agg:
			if id, ok := x.Src.(Ident); ok {
				classes[id.Name] = true
			}
			if x.Over != "" {
				attrs[x.Over] = true
			}
		case Key:
			classes["self"] = true
			for _, a := range x.Attrs {
				attrs[a] = true
			}
		}
		return true
	})
	return classes, attrs
}

func copyBound(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m)+2)
	for k, v := range m {
		out[k] = v
	}
	return out
}
