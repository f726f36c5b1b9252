package expr

import (
	"sync/atomic"

	"interopdb/internal/object"
)

// Program is a predicate compiled to a closure chain: the AST is walked
// once at compile time and every node lowered to a func, so evaluating it
// over a row costs only the closure calls — no per-row type switches on
// node kinds. Semantics are identical to the tree-walking interpreter
// (Env.Eval / Env.EvalBool), including null handling and error messages;
// nodes outside the compiled fragment (aggregates, quantifiers, key
// constraints) fall back to the interpreter node-for-node.
//
// A Program is immutable and safe for concurrent use as long as each
// goroutine evaluates it against its own *Env (the Env itself is mutated
// during quantifier evaluation). One goroutine may reuse one Env across
// rows, rebinding Env.Self per row: a quantifier restores the Vars
// bindings it shadows before it returns.
type Program struct {
	node Node
	fn   anyFn
}

// anyFn is a compiled node: like Env.evalAny it yields either an
// object.Value or an Object (for identifiers bound to objects).
type anyFn func(env *Env) (any, error)

// valFn is a compiled node narrowed to a plain value.
type valFn func(env *Env) (object.Value, error)

// compileCount counts Compile calls process-wide; tests use it to pin
// that steady-state serving recompiles nothing.
var compileCount atomic.Int64

// CompileCount returns the number of Compile calls made so far in this
// process. The view engine's plan cache is pinned against it: a
// plan-cache hit must not compile.
func CompileCount() int64 { return compileCount.Load() }

// Compile lowers the node to a Program. Compilation never fails: nodes
// the compiler does not specialise are wrapped in interpreter fallbacks.
func Compile(n Node) *Program {
	compileCount.Add(1)
	return &Program{node: n, fn: compileAny(n)}
}

// Node returns the source AST of the program.
func (p *Program) Node() Node { return p.node }

// Eval evaluates the program to a value, like Env.Eval.
func (p *Program) Eval(env *Env) (object.Value, error) {
	r, err := p.fn(env)
	if err != nil {
		return nil, err
	}
	return coerceValue(r, p.node)
}

// EvalBool evaluates the program to a truth value, like Env.EvalBool.
func (p *Program) EvalBool(env *Env) (bool, error) {
	v, err := p.Eval(env)
	if err != nil {
		return false, err
	}
	return truthy(v)
}

// compileVal narrows a compiled node to a value, mirroring Env.Eval.
func compileVal(n Node) valFn {
	fn := compileAny(n)
	return func(env *Env) (object.Value, error) {
		r, err := fn(env)
		if err != nil {
			return nil, err
		}
		return coerceValue(r, n)
	}
}

// compileBool coerces a compiled node to a truth value, mirroring
// Env.EvalBool.
func compileBool(n Node) func(env *Env) (bool, error) {
	fn := compileVal(n)
	return func(env *Env) (bool, error) {
		v, err := fn(env)
		if err != nil {
			return false, err
		}
		return truthy(v)
	}
}

// compileOperand mirrors Env.evalOperand: identifiable objects decay to
// their reference identity in comparison and arithmetic positions.
func compileOperand(n Node) valFn {
	fn := compileAny(n)
	return func(env *Env) (object.Value, error) {
		r, err := fn(env)
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
}

func compileAny(n Node) anyFn {
	switch n := n.(type) {
	case Lit:
		v := n.Val
		return func(*Env) (any, error) { return v, nil }
	case SetLit:
		return compileSetLit(n)
	case Ident:
		name := n.Name
		return func(env *Env) (any, error) { return env.resolveIdent(name) }
	case Path:
		recv := compileAny(n.Recv)
		// at is boxed once here, not on every call to getAttr.
		var at Node = n
		attr := n.Attr
		return func(env *Env) (any, error) {
			r, err := recv(env)
			if err != nil {
				return nil, err
			}
			return env.getAttr(r, attr, at)
		}
	case Unary:
		return compileUnary(n)
	case Binary:
		return compileBinary(n)
	case In:
		return compileIn(n)
	case Call:
		return compileCall(n)
	default:
		// Aggregates, quantifiers and key constraints re-enter the
		// interpreter: they rebind Env state (collect/quantifier
		// variables, extensions) and are not hot per-row work.
		nn := n
		return func(env *Env) (any, error) { return env.evalAny(nn) }
	}
}

func compileSetLit(n SetLit) anyFn {
	// Constant fold: a literal-only set is built once at compile time.
	allLit := true
	for _, e := range n.Elems {
		if _, ok := e.(Lit); !ok {
			allLit = false
			break
		}
	}
	if allLit {
		elems := make([]object.Value, len(n.Elems))
		for i, e := range n.Elems {
			elems[i] = e.(Lit).Val
		}
		s := object.NewSet(elems...)
		return func(*Env) (any, error) { return s, nil }
	}
	fns := make([]valFn, len(n.Elems))
	for i, e := range n.Elems {
		fns[i] = compileVal(e)
	}
	return func(env *Env) (any, error) {
		elems := make([]object.Value, len(fns))
		for i, fn := range fns {
			v, err := fn(env)
			if err != nil {
				return nil, err
			}
			elems[i] = v
		}
		return object.NewSet(elems...), nil
	}
}

func compileUnary(n Unary) anyFn {
	x := compileVal(n.X)
	switch n.Op {
	case OpNot:
		return func(env *Env) (any, error) {
			v, err := x(env)
			if err != nil {
				return nil, err
			}
			if v.Kind() == object.KindNull {
				return object.Bool(true), nil // not null ≡ not false
			}
			b, err := truthy(v)
			if err != nil {
				return nil, err
			}
			return object.Bool(!b), nil
		}
	case OpNeg:
		return func(env *Env) (any, error) {
			v, err := x(env)
			if err != nil {
				return nil, err
			}
			switch v := v.(type) {
			case object.Int:
				return object.Int(-v), nil
			case object.Real:
				return object.Real(-v), nil
			case object.Null:
				return object.Null{}, nil
			default:
				return nil, evalErrf("cannot negate %s", v)
			}
		}
	default:
		op := n.Op
		return func(*Env) (any, error) { return nil, evalErrf("internal: bad unary op %s", op) }
	}
}

func compileBinary(n Binary) anyFn {
	if n.Op.IsBool() {
		l, r := compileBool(n.L), compileBool(n.R)
		switch n.Op {
		case OpAnd:
			return func(env *Env) (any, error) {
				lb, err := l(env)
				if err != nil {
					return nil, err
				}
				if !lb {
					return object.Bool(false), nil
				}
				rb, err := r(env)
				if err != nil {
					return nil, err
				}
				return object.Bool(rb), nil
			}
		case OpOr:
			return func(env *Env) (any, error) {
				lb, err := l(env)
				if err != nil {
					return nil, err
				}
				if lb {
					return object.Bool(true), nil
				}
				rb, err := r(env)
				if err != nil {
					return nil, err
				}
				return object.Bool(rb), nil
			}
		default: // OpImplies
			return func(env *Env) (any, error) {
				lb, err := l(env)
				if err != nil {
					return nil, err
				}
				if !lb {
					return object.Bool(true), nil
				}
				rb, err := r(env)
				if err != nil {
					return nil, err
				}
				return object.Bool(rb), nil
			}
		}
	}
	l, r := compileOperand(n.L), compileOperand(n.R)
	op := n.Op
	if op.IsComparison() {
		return func(env *Env) (any, error) {
			lv, err := l(env)
			if err != nil {
				return nil, err
			}
			rv, err := r(env)
			if err != nil {
				return nil, err
			}
			return compareVals(op, lv, rv)
		}
	}
	return func(env *Env) (any, error) {
		lv, err := l(env)
		if err != nil {
			return nil, err
		}
		rv, err := r(env)
		if err != nil {
			return nil, err
		}
		return arith(op, lv, rv)
	}
}

func compileIn(n In) anyFn {
	x, set := compileVal(n.X), compileVal(n.Set)
	neg := n.Neg
	return func(env *Env) (any, error) {
		xv, err := x(env)
		if err != nil {
			return nil, err
		}
		sv, err := set(env)
		if err != nil {
			return nil, err
		}
		if xv.Kind() == object.KindNull {
			return object.Bool(false), nil
		}
		s, ok := sv.(object.Set)
		if !ok {
			if sv.Kind() == object.KindNull {
				return object.Bool(false), nil
			}
			return nil, evalErrf("right side of in is not a set: %s", sv)
		}
		res := s.Contains(xv)
		if neg {
			res = !res
		}
		return object.Bool(res), nil
	}
}

func compileCall(n Call) anyFn {
	fns := make([]valFn, len(n.Args))
	for i, a := range n.Args {
		fns[i] = compileVal(a)
	}
	name := n.Fn
	return func(env *Env) (any, error) {
		args := make([]object.Value, len(fns))
		for i, fn := range fns {
			v, err := fn(env)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return callBuiltin(name, args)
	}
}
