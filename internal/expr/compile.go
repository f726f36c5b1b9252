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
// Compiled against an attribute dictionary (CompileSlots), a read of a
// name the dictionary holds — an identifier or a path's attribute — is
// resolved to its slot once, here, and reads a SlotObject by index; it
// reads by name only when a bound variable shadows the identifier or
// the object is not slotted.
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

// Slots is an append-only attribute dictionary: a name's slot never
// changes and no slot is reused, so every later extension of the
// dictionary a program was compiled against resolves its reads alike.
type Slots interface {
	Slot(name string) (int, bool)
}

// SlotObject is an Object whose attributes are also addressed by slot.
// At must agree with Get for the dictionary (or any extension of the
// dictionary) the evaluated program was compiled against: a program
// compiled against one view's dictionary must only see that view's
// objects.
type SlotObject interface {
	Object
	At(slot int) (object.Value, bool)
}

// Compile lowers the node to a Program. Compilation never fails: nodes
// the compiler does not specialise are wrapped in interpreter fallbacks.
func Compile(n Node) *Program { return CompileSlots(n, nil) }

// CompileSlots is Compile with attribute reads resolved against a
// dictionary (nil: every read is by name).
func CompileSlots(n Node, slots Slots) *Program {
	compileCount.Add(1)
	c := compiler{slots: slots}
	return &Program{node: n, fn: c.any(n)}
}

// compiler carries what every node's lowering shares: the dictionary
// reads resolve against.
type compiler struct{ slots Slots }

// slot resolves an attribute name against the dictionary.
func (c compiler) slot(name string) (int, bool) {
	if c.slots == nil {
		return 0, false
	}
	return c.slots.Slot(name)
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

// val narrows a compiled node to a value, mirroring Env.Eval.
func (c compiler) val(n Node) valFn { return c.narrow(n, false) }

// bool coerces a compiled node to a truth value, mirroring Env.EvalBool.
func (c compiler) bool(n Node) func(env *Env) (bool, error) {
	fn := c.val(n)
	return func(env *Env) (bool, error) {
		v, err := fn(env)
		if err != nil {
			return false, err
		}
		return truthy(v)
	}
}

// operand mirrors Env.evalOperand: identifiable objects decay to their
// reference identity in comparison and arithmetic positions.
func (c compiler) operand(n Node) valFn { return c.narrow(n, true) }

// narrow compiles a node read as a value: a literal, a path (which
// always yields a value) and an identifier self's slot holds skip the
// general result's narrowing; anything else goes through narrowed.
func (c compiler) narrow(n Node, decay bool) valFn {
	switch n := n.(type) {
	case Lit:
		v := n.Val
		return func(*Env) (object.Value, error) { return v, nil }
	case Path:
		return c.path(n)
	case Ident:
		if slot, ok := c.slot(n.Name); ok && n.Name != "self" {
			name := n.Name
			return func(env *Env) (object.Value, error) {
				if len(env.Vars) == 0 {
					if so, ok := env.Self.(SlotObject); ok {
						if v, ok := so.At(slot); ok {
							return v, nil
						}
						r, err := env.resolveUnstored(name)
						return narrowed(r, err, n, decay)
					}
				}
				r, err := env.resolveIdent(name)
				return narrowed(r, err, n, decay)
			}
		}
	}
	fn := c.any(n)
	return func(env *Env) (object.Value, error) {
		r, err := fn(env)
		return narrowed(r, err, n, decay)
	}
}

// narrowed narrows a general result to a value, like Env.Eval, or with
// decay like Env.evalOperand.
func narrowed(r any, err error, n Node, decay bool) (object.Value, error) {
	if err != nil {
		return nil, err
	}
	if v, ok := r.(object.Value); ok {
		return v, nil
	}
	if id, ok := r.(Identifiable); ok && decay {
		return id.Identity(), nil
	}
	return coerceValue(r, n)
}

func (c compiler) any(n Node) anyFn {
	switch n := n.(type) {
	case Lit:
		v := n.Val
		return func(*Env) (any, error) { return v, nil }
	case SetLit:
		return c.setLit(n)
	case Ident:
		return c.ident(n.Name)
	case Path:
		fn := c.path(n)
		return func(env *Env) (any, error) { return fn(env) }
	case Unary:
		return c.unary(n)
	case Binary:
		return c.binary(n)
	case In:
		return c.in(n)
	case Call:
		return c.call(n)
	default:
		// Aggregates, quantifiers and key constraints re-enter the
		// interpreter: they rebind Env state (collect/quantifier
		// variables, extensions) and are not hot per-row work.
		nn := n
		return func(env *Env) (any, error) { return env.evalAny(nn) }
	}
}

// ident reads an identifier: resolveIdent, with a name the dictionary
// holds read from self's slot unless a variable shadows it.
func (c compiler) ident(name string) anyFn {
	slot, ok := c.slot(name)
	if !ok || name == "self" {
		return func(env *Env) (any, error) { return env.resolveIdent(name) }
	}
	return func(env *Env) (any, error) {
		if len(env.Vars) == 0 {
			if so, ok := env.Self.(SlotObject); ok {
				if v, ok := so.At(slot); ok {
					return v, nil
				}
				return env.resolveUnstored(name)
			}
		}
		return env.resolveIdent(name)
	}
}

// path reads an attribute of the receiver: getAttr, with an attribute
// the dictionary holds read from the slot of a slotted receiver, or of
// the slotted object a reference receiver dereferences to.
func (c compiler) path(n Path) valFn {
	recv := c.any(n.Recv)
	// at is boxed once here, not on every call to getAttr.
	var at Node = n
	attr := n.Attr
	slot, ok := c.slot(attr)
	if !ok {
		return func(env *Env) (object.Value, error) {
			r, err := recv(env)
			if err != nil {
				return nil, err
			}
			return env.getAttr(r, attr, at)
		}
	}
	return func(env *Env) (object.Value, error) {
		r, err := recv(env)
		if err != nil {
			return nil, err
		}
		var so SlotObject
		switch r := r.(type) {
		case SlotObject:
			so = r
		case object.Ref:
			if env.Deref != nil {
				if o, ok := env.Deref(r); ok {
					so, _ = o.(SlotObject)
				}
			}
		}
		if so == nil {
			return env.getAttr(r, attr, at)
		}
		if v, ok := so.At(slot); ok {
			return v, nil
		}
		return object.Null{}, nil
	}
}

func (c compiler) setLit(n SetLit) anyFn {
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
		fns[i] = c.val(e)
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

func (c compiler) unary(n Unary) anyFn {
	x := c.val(n.X)
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

func (c compiler) binary(n Binary) anyFn {
	if n.Op.IsBool() {
		l, r := c.bool(n.L), c.bool(n.R)
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
	l, r := c.operand(n.L), c.operand(n.R)
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

func (c compiler) in(n In) anyFn {
	x, set := c.val(n.X), c.val(n.Set)
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

func (c compiler) call(n Call) anyFn {
	fns := make([]valFn, len(n.Args))
	for i, a := range n.Args {
		fns[i] = c.val(a)
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
