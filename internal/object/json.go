package object

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Structural JSON codec for values, used where persisted state is
// JSON: the literals of persisted derivations and plans, and the WAL
// record bodies and checkpoints earlier versions wrote, which are read
// but no longer written (the binary codec in codec.go writes those).
//
// The TM literal syntax that String() renders is NOT round-trippable —
// Int(30) and Real(30.0) can render to forms a reparse cannot tell
// apart — so persistence never goes through text. Every value is
// encoded with an explicit kind tag and decoded back to the exact
// dynamic kind, so Equal, Compare, Hash and the expr fingerprints all
// agree across a save/restore cycle.
//
// The encoding is strict in both directions: unknown kind tags and
// malformed payloads are errors, never best-effort guesses, because a
// checkpoint that decodes "almost right" is worse than one that fails
// recovery loudly.

// jsonValue is the wire form: a kind tag plus the one payload field the
// kind uses. Pointers distinguish "absent" from zero values.
type jsonValue struct {
	T     string               `json:"t"`
	Int   *int64               `json:"int,omitempty"`
	Real  *float64             `json:"real,omitempty"`
	Str   *string              `json:"str,omitempty"`
	Bool  *bool                `json:"bool,omitempty"`
	DB    string               `json:"db,omitempty"`
	OID   uint64               `json:"oid,omitempty"`
	Elems []jsonValue          `json:"elems,omitempty"`
	Flds  map[string]jsonValue `json:"fields,omitempty"`
}

func toJSONValue(v Value) (jsonValue, error) {
	switch v := v.(type) {
	case Null:
		return jsonValue{T: "null"}, nil
	case Int:
		i := int64(v)
		return jsonValue{T: "int", Int: &i}, nil
	case Real:
		f := float64(v)
		return jsonValue{T: "real", Real: &f}, nil
	case Str:
		s := string(v)
		return jsonValue{T: "str", Str: &s}, nil
	case Bool:
		b := bool(v)
		return jsonValue{T: "bool", Bool: &b}, nil
	case Ref:
		return jsonValue{T: "ref", DB: v.DB, OID: uint64(v.OID)}, nil
	case Set:
		elems := make([]jsonValue, 0, v.Len())
		for _, e := range v.Elems() {
			je, err := toJSONValue(e)
			if err != nil {
				return jsonValue{}, err
			}
			elems = append(elems, je)
		}
		if elems == nil {
			elems = []jsonValue{}
		}
		return jsonValue{T: "set", Elems: elems}, nil
	case Tuple:
		flds := map[string]jsonValue{}
		for _, n := range v.Names() {
			jf, err := toJSONValue(v.Field(n))
			if err != nil {
				return jsonValue{}, err
			}
			flds[n] = jf
		}
		return jsonValue{T: "tuple", Flds: flds}, nil
	case nil:
		return jsonValue{}, fmt.Errorf("object: cannot encode nil value")
	default:
		return jsonValue{}, fmt.Errorf("object: cannot encode value of kind %s", v.Kind())
	}
}

func fromJSONValue(j jsonValue) (Value, error) {
	switch j.T {
	case "null":
		return Null{}, nil
	case "int":
		if j.Int == nil {
			return nil, fmt.Errorf("object: int value missing payload")
		}
		return Int(*j.Int), nil
	case "real":
		if j.Real == nil {
			return nil, fmt.Errorf("object: real value missing payload")
		}
		return Real(*j.Real), nil
	case "str":
		if j.Str == nil {
			return nil, fmt.Errorf("object: str value missing payload")
		}
		return Str(*j.Str), nil
	case "bool":
		if j.Bool == nil {
			return nil, fmt.Errorf("object: bool value missing payload")
		}
		return Bool(*j.Bool), nil
	case "ref":
		return Ref{DB: j.DB, OID: OID(j.OID)}, nil
	case "set":
		elems := make([]Value, 0, len(j.Elems))
		for i, je := range j.Elems {
			e, err := fromJSONValue(je)
			if err != nil {
				return nil, fmt.Errorf("object: set elem %d: %w", i, err)
			}
			elems = append(elems, e)
		}
		return NewSet(elems...), nil
	case "tuple":
		flds := make(map[string]Value, len(j.Flds))
		for n, jf := range j.Flds {
			f, err := fromJSONValue(jf)
			if err != nil {
				return nil, fmt.Errorf("object: tuple field %s: %w", n, err)
			}
			flds[n] = f
		}
		return NewTuple(flds), nil
	case "":
		return nil, fmt.Errorf("object: value missing kind tag")
	default:
		return nil, fmt.Errorf("object: unknown value kind tag %q", j.T)
	}
}

// MarshalValue encodes a value as tagged JSON. The encoding is
// deterministic: sets keep their canonical element order and tuple/map
// keys marshal sorted.
func MarshalValue(v Value) ([]byte, error) {
	j, err := toJSONValue(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(j)
}

// UnmarshalValue decodes a value encoded by MarshalValue. Unknown kind
// tags and missing payloads are errors.
func UnmarshalValue(data []byte) (Value, error) {
	var j jsonValue
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("object: %w", err)
	}
	return fromJSONValue(j)
}

// MarshalAttrs encodes an attribute map with MarshalValue per value.
// The raw messages are suitable for embedding in larger JSON documents
// (WAL records, checkpoint objects).
func MarshalAttrs(attrs map[string]Value) (map[string]json.RawMessage, error) {
	if attrs == nil {
		return nil, nil
	}
	out := make(map[string]json.RawMessage, len(attrs))
	for k, v := range attrs {
		b, err := MarshalValue(v)
		if err != nil {
			return nil, fmt.Errorf("attr %s: %w", k, err)
		}
		out[k] = b
	}
	return out, nil
}

// UnmarshalAttrs decodes an attribute map encoded by MarshalAttrs.
func UnmarshalAttrs(raw map[string]json.RawMessage) (map[string]Value, error) {
	if raw == nil {
		return nil, nil
	}
	out := make(map[string]Value, len(raw))
	for k, b := range raw {
		v, err := UnmarshalValue(b)
		if err != nil {
			return nil, fmt.Errorf("attr %s: %w", k, err)
		}
		out[k] = v
	}
	return out, nil
}

// AttrsEqual reports whether two attribute maps hold the same keys with
// Equal values — the recovery tests' byte-identity oracle at the object
// level.
func AttrsEqual(a, b map[string]Value) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || !av.Equal(bv) {
			return false
		}
	}
	return true
}

// SortedKeys returns the keys of an attribute map in sorted order, for
// deterministic iteration in snapshots and diagnostics.
func SortedKeys(attrs map[string]Value) []string {
	out := make([]string, 0, len(attrs))
	for k := range attrs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
