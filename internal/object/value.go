// Package object implements the value model and type system underlying the
// TM-style object databases used throughout the reproduction: scalar values
// (integers, reals, strings, booleans), finite sets, tuples, object
// references and null, together with ordering, equality and conversion.
//
// The model follows the fragment of the TM object model [BBZ93] that the
// paper's Figure 1 exercises.
package object

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic kinds of Value.
type Kind int

// The value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindReal
	KindString
	KindBool
	KindSet
	KindTuple
	KindRef
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindReal:
		return "real"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindSet:
		return "set"
	case KindTuple:
		return "tuple"
	case KindRef:
		return "ref"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// OID identifies an object within a database. OIDs are allocated by stores
// and are unique per database, not globally; global objects carry
// provenance instead.
type OID uint64

// String formats the OID as "#n".
func (o OID) String() string { return "#" + strconv.FormatUint(uint64(o), 10) }

// Value is a dynamically typed database value. Implementations are
// immutable; Set copies its elements on construction.
type Value interface {
	// Kind reports the dynamic kind.
	Kind() Kind
	// Equal reports deep equality with another value. Int and Real
	// compare numerically across kinds (Int(2).Equal(Real(2.0)) is true),
	// mirroring TM's numeric subsumption.
	Equal(Value) bool
	// String renders the value in TM literal syntax.
	String() string
}

// Int is a 64-bit integer value.
type Int int64

// Kind implements Value.
func (Int) Kind() Kind { return KindInt }

// Equal implements Value.
func (v Int) Equal(o Value) bool {
	switch o := o.(type) {
	case Int:
		return v == o
	case Real:
		return float64(v) == float64(o)
	default:
		return false
	}
}

// String implements Value.
func (v Int) String() string { return strconv.FormatInt(int64(v), 10) }

// Real is a double-precision real value.
type Real float64

// Kind implements Value.
func (Real) Kind() Kind { return KindReal }

// Equal implements Value.
func (v Real) Equal(o Value) bool {
	switch o := o.(type) {
	case Real:
		return v == o
	case Int:
		return float64(v) == float64(o)
	default:
		return false
	}
}

// String implements Value.
func (v Real) String() string {
	s := strconv.FormatFloat(float64(v), 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// Str is a string value.
type Str string

// Kind implements Value.
func (Str) Kind() Kind { return KindString }

// Equal implements Value.
func (v Str) Equal(o Value) bool {
	s, ok := o.(Str)
	return ok && v == s
}

// String implements Value; strings render single-quoted as in TM.
func (v Str) String() string { return "'" + strings.ReplaceAll(string(v), "'", "''") + "'" }

// Bool is a boolean value.
type Bool bool

// Kind implements Value.
func (Bool) Kind() Kind { return KindBool }

// Equal implements Value.
func (v Bool) Equal(o Value) bool {
	b, ok := o.(Bool)
	return ok && v == b
}

// String implements Value.
func (v Bool) String() string {
	if v {
		return "true"
	}
	return "false"
}

// Ref is a reference to an object, qualified by the database the OID was
// allocated in so that references survive integration.
type Ref struct {
	DB  string
	OID OID
}

// Kind implements Value.
func (Ref) Kind() Kind { return KindRef }

// Equal implements Value.
func (v Ref) Equal(o Value) bool {
	r, ok := o.(Ref)
	return ok && v == r
}

// String implements Value.
func (v Ref) String() string {
	if v.DB == "" {
		return v.OID.String()
	}
	return v.DB + v.OID.String()
}

// Null is the distinguished absent value.
type Null struct{}

// Kind implements Value.
func (Null) Kind() Kind { return KindNull }

// Equal implements Value. Null equals only Null.
func (Null) Equal(o Value) bool { _, ok := o.(Null); return ok }

// String implements Value.
func (Null) String() string { return "null" }

// Set is an immutable finite set of values. Construct with NewSet, which
// deduplicates; the element order is canonical (sorted by Compare).
type Set struct {
	elems []Value
}

// NewSet builds a set from the given elements, removing duplicates and
// sorting canonically.
func NewSet(elems ...Value) Set {
	out := make([]Value, 0, len(elems))
	for _, e := range elems {
		dup := false
		for _, have := range out {
			if have.Equal(e) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, e)
		}
	}
	slices.SortStableFunc(out, func(a, b Value) int {
		switch {
		case totalLess(a, b):
			return -1
		case totalLess(b, a):
			return 1
		}
		return 0
	})
	return Set{elems: out}
}

// groupRank buckets kinds so that the canonical set order is total even
// across incomparable kinds. Int and Real share a bucket because they
// compare (and equal) numerically.
func groupRank(v Value) int {
	switch v.Kind() {
	case KindNull:
		return 0
	case KindInt, KindReal:
		return 1
	case KindString:
		return 2
	case KindBool:
		return 3
	case KindRef:
		return 4
	case KindSet:
		return 5
	default:
		return 6
	}
}

// totalLess is a total strict order over all values: by kind bucket first,
// then by Compare, then by rendered form as a last resort.
func totalLess(a, b Value) bool {
	ra, rb := groupRank(a), groupRank(b)
	if ra != rb {
		return ra < rb
	}
	if c, ok := Compare(a, b); ok {
		return c < 0
	}
	return a.String() < b.String()
}

// Kind implements Value.
func (Set) Kind() Kind { return KindSet }

// Len reports the cardinality.
func (v Set) Len() int { return len(v.elems) }

// Elems returns a copy of the canonical element slice.
func (v Set) Elems() []Value {
	out := make([]Value, len(v.elems))
	copy(out, v.elems)
	return out
}

// Contains reports membership.
func (v Set) Contains(e Value) bool {
	for _, have := range v.elems {
		if have.Equal(e) {
			return true
		}
	}
	return false
}

// Union returns the set union.
func (v Set) Union(o Set) Set {
	all := make([]Value, 0, len(v.elems)+len(o.elems))
	all = append(all, v.elems...)
	all = append(all, o.elems...)
	return NewSet(all...)
}

// Intersect returns the set intersection.
func (v Set) Intersect(o Set) Set {
	var out []Value
	for _, e := range v.elems {
		if o.Contains(e) {
			out = append(out, e)
		}
	}
	return NewSet(out...)
}

// Equal implements Value.
func (v Set) Equal(o Value) bool {
	s, ok := o.(Set)
	if !ok || len(s.elems) != len(v.elems) {
		return false
	}
	for i := range v.elems {
		if !v.elems[i].Equal(s.elems[i]) {
			return false
		}
	}
	return true
}

// String implements Value.
func (v Set) String() string {
	parts := make([]string, len(v.elems))
	for i, e := range v.elems {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Tuple is an immutable attribute-name→value record, used for complex
// values produced by descriptivity conformation.
type Tuple struct {
	names []string // sorted
	vals  map[string]Value
}

// NewTuple builds a tuple from a field map; the map is copied.
func NewTuple(fields map[string]Value) Tuple {
	names := make([]string, 0, len(fields))
	vals := make(map[string]Value, len(fields))
	for k, v := range fields {
		names = append(names, k)
		vals[k] = v
	}
	sort.Strings(names)
	return Tuple{names: names, vals: vals}
}

// Kind implements Value.
func (Tuple) Kind() Kind { return KindTuple }

// Field returns the named field, or Null if absent.
func (v Tuple) Field(name string) Value {
	if x, ok := v.vals[name]; ok {
		return x
	}
	return Null{}
}

// Names returns the sorted field names.
func (v Tuple) Names() []string {
	out := make([]string, len(v.names))
	copy(out, v.names)
	return out
}

// Equal implements Value.
func (v Tuple) Equal(o Value) bool {
	t, ok := o.(Tuple)
	if !ok || len(t.names) != len(v.names) {
		return false
	}
	for _, n := range v.names {
		x, ok := t.vals[n]
		if !ok || !v.vals[n].Equal(x) {
			return false
		}
	}
	return true
}

// String implements Value.
func (v Tuple) String() string {
	parts := make([]string, len(v.names))
	for i, n := range v.names {
		parts[i] = n + "=" + v.vals[n].String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// IsNumeric reports whether v is an Int or Real.
func IsNumeric(v Value) bool {
	k := v.Kind()
	return k == KindInt || k == KindReal
}

// AsFloat extracts a numeric value as float64.
func AsFloat(v Value) (float64, bool) {
	switch v := v.(type) {
	case Int:
		return float64(v), true
	case Real:
		return float64(v), true
	default:
		return 0, false
	}
}

// Compare orders two values. It returns (c, true) with c<0, c==0 or c>0
// when the values are comparable (both numeric, both strings, both bools,
// both refs, or sets/tuples compared elementwise), and (0, false) when no
// order is defined between the kinds.
func Compare(a, b Value) (int, bool) {
	if IsNumeric(a) && IsNumeric(b) {
		x, _ := AsFloat(a)
		y, _ := AsFloat(b)
		switch {
		case x < y:
			return -1, true
		case x > y:
			return 1, true
		default:
			return 0, true
		}
	}
	switch a := a.(type) {
	case Str:
		if s, ok := b.(Str); ok {
			return strings.Compare(string(a), string(s)), true
		}
	case Bool:
		if s, ok := b.(Bool); ok {
			x, y := 0, 0
			if a {
				x = 1
			}
			if s {
				y = 1
			}
			return x - y, true
		}
	case Ref:
		if s, ok := b.(Ref); ok {
			if c := strings.Compare(a.DB, s.DB); c != 0 {
				return c, true
			}
			switch {
			case a.OID < s.OID:
				return -1, true
			case a.OID > s.OID:
				return 1, true
			default:
				return 0, true
			}
		}
	case Null:
		if _, ok := b.(Null); ok {
			return 0, true
		}
		return -1, true // nulls sort first against anything
	case Set:
		if s, ok := b.(Set); ok {
			for i := 0; i < len(a.elems) && i < len(s.elems); i++ {
				if c, ok := Compare(a.elems[i], s.elems[i]); ok && c != 0 {
					return c, true
				}
			}
			return len(a.elems) - len(s.elems), true
		}
	case Tuple:
		if s, ok := b.(Tuple); ok {
			return strings.Compare(a.String(), s.String()), true
		}
	}
	if _, ok := b.(Null); ok {
		return 1, true
	}
	return 0, false
}

// Hash returns a stable 64-bit hash of the value, suitable for hash-join
// entity resolution. Equal values hash equally (numeric cross-kind
// equality included: Int(2) and Real(2.0) share a hash; so do −0.0 and 0,
// which Compare orders equal).
func Hash(v Value) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(bs ...byte) {
		for _, b := range bs {
			h ^= uint64(b)
			h *= prime64
		}
	}
	mixU64 := func(x uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(x >> (8 * i)))
		}
	}
	switch v := v.(type) {
	case Null:
		mix(0)
	case Int:
		mix(1)
		mixU64(math.Float64bits(float64(v)))
	case Real:
		mix(1)
		f := float64(v)
		if f == 0 {
			f = 0 // −0.0 hashes as 0
		}
		mixU64(math.Float64bits(f))
	case Str:
		mix(2)
		mix([]byte(v)...)
	case Bool:
		mix(3)
		if v {
			mix(1)
		} else {
			mix(0)
		}
	case Ref:
		mix(4)
		mix([]byte(v.DB)...)
		mixU64(uint64(v.OID))
	case Set:
		mix(5)
		for _, e := range v.elems {
			mixU64(Hash(e))
		}
	case Tuple:
		mix(6)
		for _, n := range v.names {
			mix([]byte(n)...)
			mixU64(Hash(v.vals[n]))
		}
	}
	return h
}
