package expr

import (
	"fmt"
	"math"
	"strings"

	"interopdb/internal/object"
)

// Object is the evaluation-time view of a database object: attribute
// lookup by name. Stores, global objects and plain maps implement it.
type Object interface {
	Get(attr string) (object.Value, bool)
}

// Identifiable is implemented by objects that have a reference identity;
// it lets formulas compare reference-valued attributes against
// quantifier-bound objects (Figure 1's db1: i.publisher = p).
type Identifiable interface {
	Object
	Identity() object.Ref
}

// MapObject is the simplest Object: a name→value map.
type MapObject map[string]object.Value

// Get implements Object.
func (m MapObject) Get(attr string) (object.Value, bool) {
	v, ok := m[attr]
	return v, ok
}

// Env supplies everything evaluation needs: the object "self" denotes
// in object constraints, bound variables (quantifier, collect and rule
// variables), named constants (KNOWNPUBLISHERS, MAX), class extensions
// for quantifiers and aggregates, the extension that "self" denotes in
// class constraints, and reference dereferencing.
//
// Evaluation mutates an Env (quantifiers bind and restore Vars), so an
// Env belongs to one goroutine at a time. Within that goroutine one Env
// serves any number of rows: rebinding Self (or a rule variable in Vars)
// is all a new row needs. Build one per loop, not per row: evaluation
// calls Self's methods through an interface, so the compiler moves
// whatever an Env's fields point to (the Vars map, the Ext and Deref
// closures) to the heap even when the Env itself stays on the stack.
type Env struct {
	// Self is the object "self" denotes; nil when nothing is bound.
	Self    Object
	Vars    map[string]Object
	Consts  map[string]object.Value
	Ext     func(class string) []Object
	SelfExt []Object
	Deref   func(ref object.Ref) (Object, bool)
	// Declared, when non-nil, is asked about a name self does not store,
	// and only then: a name self's classes declare evaluates to Null.
	// Any other name falls through to Consts and is an error when no
	// constant has it (catching typos the type checker would also
	// reject).
	Declared Declarer
}

// Declarer answers the declared-attribute question for Env.Declared.
type Declarer interface {
	Declares(self Object, attr string) bool
}

// Attrs is a Declarer over one fixed attribute set, for callers that
// know self's declarations up front.
type Attrs map[string]bool

// Declares implements Declarer.
func (a Attrs) Declares(_ Object, attr string) bool { return a[attr] }

// EvalError reports an evaluation failure.
type EvalError struct{ Msg string }

// Error implements error.
func (e *EvalError) Error() string { return "eval error: " + e.Msg }

func evalErrf(format string, args ...any) error {
	return &EvalError{Msg: fmt.Sprintf(format, args...)}
}

// Eval evaluates the node to a value. Missing attributes evaluate to
// Null; comparisons against Null are false (except null = null);
// arithmetic over Null yields Null; boolean connectives treat Null as
// false. These null semantics keep constraint checking total over
// partially populated objects.
func (env *Env) Eval(n Node) (object.Value, error) {
	r, err := env.evalAny(n)
	if err != nil {
		return nil, err
	}
	// Objects are not values: they only decay to references in
	// comparison operands (evalOperand).
	switch r := r.(type) {
	case object.Value:
		return r, nil
	case Object:
		return nil, evalErrf("object used where a value is required: %s", n)
	default:
		return nil, evalErrf("internal: bad eval result %T", r)
	}
}

// EvalBool evaluates the node and coerces to a truth value (Null→false).
func (env *Env) EvalBool(n Node) (bool, error) {
	v, err := env.Eval(n)
	if err != nil {
		return false, err
	}
	return truthy(v)
}

func truthy(v object.Value) (bool, error) {
	switch v := v.(type) {
	case object.Bool:
		return bool(v), nil
	case object.Null:
		return false, nil
	default:
		return false, evalErrf("non-boolean value %s in boolean context", v)
	}
}

// evalAny returns either an object.Value or an Object (for identifiers
// bound to objects, so that paths can navigate through them).
func (env *Env) evalAny(n Node) (any, error) {
	switch n := n.(type) {
	case Lit:
		return n.Val, nil
	case SetLit:
		elems := make([]object.Value, len(n.Elems))
		for i, e := range n.Elems {
			v, err := env.Eval(e)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return object.NewSet(elems...), nil
	case Ident:
		return env.resolveIdent(n.Name)
	case Path:
		recv, err := env.evalAny(n.Recv)
		if err != nil {
			return nil, err
		}
		return env.getAttr(recv, n)
	case Unary:
		return env.evalUnary(n)
	case Binary:
		return env.evalBinary(n)
	case In:
		return env.evalIn(n)
	case Call:
		return env.evalCall(n)
	case Agg:
		return env.evalAgg(n)
	case Quant:
		return env.evalQuant(n, 0)
	case Key:
		ok, err := EvalKey(env.SelfExt, n.Attrs)
		if err != nil {
			return nil, err
		}
		return object.Bool(ok), nil
	default:
		return nil, evalErrf("internal: unknown node %T", n)
	}
}

func (env *Env) resolveIdent(name string) (any, error) {
	if o, ok := env.Vars[name]; ok {
		return o, nil
	}
	if name == "self" {
		if env.Self == nil {
			return nil, evalErrf("self is not bound in this context")
		}
		return env.Self, nil
	}
	if env.Self != nil {
		if v, ok := env.Self.Get(name); ok {
			return v, nil
		}
	}
	return env.resolveUnstored(name)
}

// resolveUnstored resolves an identifier neither a variable nor self
// stores: null when self's classes declare it, else a constant.
func (env *Env) resolveUnstored(name string) (any, error) {
	if env.Self != nil && env.Declared != nil && env.Declared.Declares(env.Self, name) {
		return object.Null{}, nil
	}
	if v, ok := env.Consts[name]; ok {
		return v, nil
	}
	return nil, evalErrf("unknown identifier %q", name)
}

// getAttr reads the path's attribute of its evaluated receiver. The path
// is passed as itself, not as a Node, and only an error boxes it: a read
// allocates nothing.
func (env *Env) getAttr(recv any, at Path) (object.Value, error) {
	attr := at.Attr
	switch recv := recv.(type) {
	case Object:
		if v, ok := recv.Get(attr); ok {
			return v, nil
		}
		return object.Null{}, nil
	case object.Value:
		switch v := recv.(type) {
		case object.Ref:
			if env.Deref == nil {
				return nil, evalErrf("cannot dereference %s: no Deref in environment", v)
			}
			o, ok := env.Deref(v)
			if !ok {
				return object.Null{}, nil
			}
			if x, ok := o.Get(attr); ok {
				return x, nil
			}
			return object.Null{}, nil
		case object.Tuple:
			return v.Field(attr), nil
		case object.Null:
			return object.Null{}, nil
		default:
			return nil, evalErrf("cannot access attribute %q of %s in %s", attr, v, at)
		}
	}
	return nil, evalErrf("internal: bad receiver %T", recv)
}

func (env *Env) evalUnary(n Unary) (any, error) {
	v, err := env.Eval(n.X)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case OpNot:
		if v.Kind() == object.KindNull {
			return object.Bool(true), nil // not null ≡ not false
		}
		b, err := truthy(v)
		if err != nil {
			return nil, err
		}
		return object.Bool(!b), nil
	case OpNeg:
		return Negate(v)
	}
	return nil, evalErrf("internal: bad unary op %s", n.Op)
}

// Negate is unary minus: null propagates, and negating the least Int is
// an overflow error, never a wrapped value.
func Negate(v object.Value) (object.Value, error) {
	switch v := v.(type) {
	case object.Int:
		if v == math.MinInt64 {
			return nil, evalErrf("integer overflow in -%s", v)
		}
		return object.Int(-v), nil
	case object.Real:
		return object.Real(-v), nil
	case object.Null:
		return object.Null{}, nil
	default:
		return nil, evalErrf("cannot negate %s", v)
	}
}

func (env *Env) evalBinary(n Binary) (any, error) {
	if n.Op.IsBool() {
		l, err := env.EvalBool(n.L)
		if err != nil {
			return nil, err
		}
		// Short-circuit.
		switch n.Op {
		case OpAnd:
			if !l {
				return object.Bool(false), nil
			}
		case OpOr:
			if l {
				return object.Bool(true), nil
			}
		case OpImplies:
			if !l {
				return object.Bool(true), nil
			}
		}
		r, err := env.EvalBool(n.R)
		if err != nil {
			return nil, err
		}
		return object.Bool(r), nil
	}
	l, err := env.evalOperand(n.L)
	if err != nil {
		return nil, err
	}
	r, err := env.evalOperand(n.R)
	if err != nil {
		return nil, err
	}
	if n.Op.IsComparison() {
		return compareVals(n.Op, l, r)
	}
	return Arith(n.Op, l, r)
}

// evalOperand evaluates a comparison/arithmetic operand; identifiable
// objects decay to their reference identity so that formulas can compare
// reference attributes with bound objects.
func (env *Env) evalOperand(n Node) (object.Value, error) {
	r, err := env.evalAny(n)
	if err != nil {
		return nil, err
	}
	switch r := r.(type) {
	case object.Value:
		return r, nil
	case Identifiable:
		return r.Identity(), nil
	case Object:
		return nil, evalErrf("object used where a value is required: %s", n)
	default:
		return nil, evalErrf("internal: bad eval result %T", r)
	}
}

func compareVals(op Op, l, r object.Value) (object.Value, error) {
	lNull := l.Kind() == object.KindNull
	rNull := r.Kind() == object.KindNull
	if lNull || rNull {
		switch op {
		case OpEq:
			return object.Bool(lNull && rNull), nil
		case OpNe:
			return object.Bool(lNull != rNull), nil
		default:
			return object.Bool(false), nil
		}
	}
	switch op {
	case OpEq:
		return object.Bool(l.Equal(r)), nil
	case OpNe:
		return object.Bool(!l.Equal(r)), nil
	}
	c, ok := object.Compare(l, r)
	if !ok {
		return nil, evalErrf("cannot order %s and %s", l, r)
	}
	switch op {
	case OpLt:
		return object.Bool(c < 0), nil
	case OpLe:
		return object.Bool(c <= 0), nil
	case OpGt:
		return object.Bool(c > 0), nil
	case OpGe:
		return object.Bool(c >= 0), nil
	}
	return nil, evalErrf("internal: bad comparison %s", op)
}

// Arith applies + - * / to two values: null propagates, + unites two
// sets, Int + - * Int is exact in int64 (overflow is an error), and
// every other numeric pair, and any division, computes in float64 and
// yields a Real. Constant folding (logic.FoldConst) calls it too, so a
// folded constant is the value the walker computes.
func Arith(op Op, l, r object.Value) (object.Value, error) {
	if l.Kind() == object.KindNull || r.Kind() == object.KindNull {
		return object.Null{}, nil
	}
	if li, ok := l.(object.Int); ok && op != OpDiv {
		if ri, ok := r.(object.Int); ok {
			return intArith(op, li, ri)
		}
	}
	// Set union via '+' is allowed for set-valued properties.
	if ls, ok := l.(object.Set); ok {
		if rs, ok := r.(object.Set); ok && op == OpAdd {
			return ls.Union(rs), nil
		}
	}
	lf, lok := object.AsFloat(l)
	rf, rok := object.AsFloat(r)
	if !lok || !rok {
		return nil, evalErrf("arithmetic on non-numeric values %s, %s", l, r)
	}
	var f float64
	switch op {
	case OpAdd:
		f = lf + rf
	case OpSub:
		f = lf - rf
	case OpMul:
		f = lf * rf
	case OpDiv:
		if rf == 0 {
			return nil, evalErrf("division by zero")
		}
		f = lf / rf
	default:
		return nil, evalErrf("internal: bad arithmetic op %s", op)
	}
	return object.Real(f), nil
}

// intArith is Int + - * Int in int64; a result past its range is an
// error, never a wrapped or rounded value.
func intArith(op Op, l, r object.Int) (object.Value, error) {
	var z object.Int
	var ok bool
	switch op {
	case OpAdd:
		z = l + r
		ok = (z > l) == (r > 0)
	case OpSub:
		z = l - r
		ok = (z < l) == (r > 0)
	case OpMul:
		z = l * r
		ok = l == 0 || (z/l == r && !(l == -1 && r == math.MinInt64))
	default:
		return nil, evalErrf("internal: bad arithmetic op %s", op)
	}
	if !ok {
		return nil, evalErrf("integer overflow in %s %s %s", l, op, r)
	}
	return z, nil
}

func (env *Env) evalIn(n In) (any, error) {
	x, err := env.Eval(n.X)
	if err != nil {
		return nil, err
	}
	s, err := env.Eval(n.Set)
	if err != nil {
		return nil, err
	}
	if x.Kind() == object.KindNull {
		return object.Bool(false), nil
	}
	set, ok := s.(object.Set)
	if !ok {
		if s.Kind() == object.KindNull {
			return object.Bool(false), nil
		}
		return nil, evalErrf("right side of in is not a set: %s", s)
	}
	res := set.Contains(x)
	if n.Neg {
		res = !res
	}
	return object.Bool(res), nil
}

func (env *Env) evalCall(n Call) (any, error) {
	// No builtin takes more than two arguments, so they are evaluated
	// into a buffer on the stack; a third spills to the heap, and
	// callBuiltin refuses the call.
	var buf [2]object.Value
	args := buf[:0]
	for _, a := range n.Args {
		v, err := env.Eval(a)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	return callBuiltin(n.Fn, args)
}

// callBuiltin dispatches a builtin function over already-evaluated
// arguments.
func callBuiltin(fn string, args []object.Value) (object.Value, error) {
	switch fn {
	case "contains":
		if len(args) != 2 {
			return nil, evalErrf("contains takes 2 arguments")
		}
		s, ok1 := args[0].(object.Str)
		sub, ok2 := args[1].(object.Str)
		if args[0].Kind() == object.KindNull || args[1].Kind() == object.KindNull {
			return object.Bool(false), nil
		}
		if !ok1 || !ok2 {
			return nil, evalErrf("contains requires string arguments")
		}
		return object.Bool(strings.Contains(string(s), string(sub))), nil
	case "length":
		if len(args) != 1 {
			return nil, evalErrf("length takes 1 argument")
		}
		switch v := args[0].(type) {
		case object.Str:
			return object.Int(len(v)), nil
		case object.Set:
			return object.Int(v.Len()), nil
		case object.Null:
			return object.Int(0), nil
		default:
			return nil, evalErrf("length requires a string or set")
		}
	case "abs":
		if len(args) != 1 {
			return nil, evalErrf("abs takes 1 argument")
		}
		switch v := args[0].(type) {
		case object.Int:
			if v == math.MinInt64 {
				return nil, evalErrf("integer overflow in abs(%s)", v)
			}
			if v < 0 {
				return object.Int(-v), nil
			}
			return v, nil
		case object.Real:
			if v < 0 {
				return object.Real(-v), nil
			}
			return v, nil
		case object.Null:
			return object.Null{}, nil
		default:
			return nil, evalErrf("abs requires a numeric argument")
		}
	default:
		return nil, evalErrf("unknown function %q", fn)
	}
}

func (env *Env) collection(src Node) ([]Object, error) {
	if id, ok := src.(Ident); ok {
		if id.Name == "self" {
			// nil SelfExt means an empty extension; class constraints over
			// empty classes are vacuously checkable.
			return env.SelfExt, nil
		}
		if env.Ext == nil {
			return nil, evalErrf("no extension provider for class %s", id.Name)
		}
		return env.Ext(id.Name), nil
	}
	return nil, evalErrf("unsupported collection source %s", src)
}

func (env *Env) evalAgg(n Agg) (any, error) {
	objs, err := env.collection(n.Src)
	if err != nil {
		return nil, err
	}
	if n.Fn == "count" {
		return object.Int(len(objs)), nil
	}
	var vals []float64
	var raw []object.Value
	for _, o := range objs {
		v, ok := o.Get(n.Over)
		if !ok || v.Kind() == object.KindNull {
			continue
		}
		raw = append(raw, v)
		if f, ok := object.AsFloat(v); ok {
			vals = append(vals, f)
		}
	}
	switch n.Fn {
	case "sum":
		s := 0.0
		for _, f := range vals {
			s += f
		}
		return object.Real(s), nil
	case "avg":
		if len(vals) == 0 {
			return object.Null{}, nil
		}
		s := 0.0
		for _, f := range vals {
			s += f
		}
		return object.Real(s / float64(len(vals))), nil
	case "min", "max":
		if len(raw) == 0 {
			return object.Null{}, nil
		}
		best := raw[0]
		for _, v := range raw[1:] {
			c, ok := object.Compare(v, best)
			if !ok {
				return nil, evalErrf("%s over incomparable values", n.Fn)
			}
			if (n.Fn == "min" && c < 0) || (n.Fn == "max" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return nil, evalErrf("unknown aggregate %q", n.Fn)
}

func (env *Env) evalQuant(n Quant, i int) (any, error) {
	if i == len(n.Binders) {
		b, err := env.EvalBool(n.Body)
		return object.Bool(b), err
	}
	bd := n.Binders[i]
	if env.Ext == nil {
		return nil, evalErrf("no extension provider for class %s", bd.Class)
	}
	objs := env.Ext(bd.Class)
	if env.Vars == nil {
		env.Vars = map[string]Object{}
	}
	// Save any shadowed binding and restore it when this binder is done.
	saved, had := env.Vars[bd.Var]
	defer func() {
		if had {
			env.Vars[bd.Var] = saved
		} else {
			delete(env.Vars, bd.Var)
		}
	}()
	for _, o := range objs {
		env.Vars[bd.Var] = o
		v, err := env.evalQuant(n, i+1)
		if err != nil {
			return nil, err
		}
		b, _ := truthy(v.(object.Value))
		if bd.All && !b {
			return object.Bool(false), nil
		}
		if !bd.All && b {
			return object.Bool(true), nil
		}
	}
	return object.Bool(bd.All), nil
}

// EvalKey checks a (possibly composite) key constraint over an extension:
// no two objects agree on all key attributes. Null key parts never match.
func EvalKey(ext []Object, attrs []string) (bool, error) {
	if len(attrs) == 0 {
		return false, evalErrf("key constraint with no attributes")
	}
	seen := make(map[string]bool, len(ext))
	for _, o := range ext {
		k, ok := KeyString(o, attrs)
		if !ok {
			continue
		}
		if seen[k] {
			return false, nil
		}
		seen[k] = true
	}
	return true, nil
}

// KeyString encodes an object's composite key as a comparable string; it
// returns false when any key part is missing or null (such objects never
// participate in key conflicts). The encoding is the one EvalKey uses, so
// incremental key-uniqueness indexes agree with the full scan.
//
// Each part renders as the value's hash in 16 lower-case hex digits and a
// '|' — the bytes fmt's "%016x|" produces — into one buffer sized up
// front, so a key costs one allocation.
func KeyString(o Object, attrs []string) (string, bool) {
	const hex = "0123456789abcdef"
	var b strings.Builder
	b.Grow(17 * len(attrs))
	for _, a := range attrs {
		v, ok := o.Get(a)
		if !ok || v.Kind() == object.KindNull {
			return "", false
		}
		h := object.Hash(v)
		var part [17]byte
		for i := 15; i >= 0; i-- {
			part[i] = hex[h&0xf]
			h >>= 4
		}
		part[16] = '|'
		b.Write(part[:])
	}
	return b.String(), true
}
