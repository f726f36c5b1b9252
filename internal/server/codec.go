package server

import (
	"encoding/json"
	"fmt"

	"interopdb/internal/object"
	"interopdb/internal/view"
)

// The wire codec. JSON alone cannot carry the view's value model — a
// JSON number does not distinguish Int from Real, and references and
// sets have no native form — so every value crosses the wire as a
// tagged object:
//
//	{"t":"int","v":42}   {"t":"real","v":49.95}  {"t":"str","v":"UNIX"}
//	{"t":"bool","v":true} {"t":"null"}
//	{"t":"ref","db":"Bookseller","oid":2}
//	{"t":"set","elems":[...]}     {"t":"tuple","fields":{"city":...}}
//
// There is one tag per object.Kind; decoding is strict (an unknown tag
// or a malformed payload is a 400, never a silent Null).

// WireValue is the tagged JSON form of an object.Value.
type WireValue struct {
	T      string               `json:"t"`
	V      json.RawMessage      `json:"v,omitempty"`
	DB     string               `json:"db,omitempty"`
	OID    uint64               `json:"oid,omitempty"`
	Elems  []WireValue          `json:"elems,omitempty"`
	Fields map[string]WireValue `json:"fields,omitempty"`
}

// EncodeValue converts a view value to its wire form.
func EncodeValue(v object.Value) WireValue {
	switch v := v.(type) {
	case object.Int:
		raw, _ := json.Marshal(int64(v))
		return WireValue{T: "int", V: raw}
	case object.Real:
		raw, _ := json.Marshal(float64(v))
		return WireValue{T: "real", V: raw}
	case object.Str:
		raw, _ := json.Marshal(string(v))
		return WireValue{T: "str", V: raw}
	case object.Bool:
		raw, _ := json.Marshal(bool(v))
		return WireValue{T: "bool", V: raw}
	case object.Ref:
		return WireValue{T: "ref", DB: v.DB, OID: uint64(v.OID)}
	case object.Set:
		elems := v.Elems()
		out := make([]WireValue, len(elems))
		for i, e := range elems {
			out[i] = EncodeValue(e)
		}
		return WireValue{T: "set", Elems: out}
	case object.Tuple:
		names := v.Names()
		out := make(map[string]WireValue, len(names))
		for _, n := range names {
			out[n] = EncodeValue(v.Field(n))
		}
		return WireValue{T: "tuple", Fields: out}
	case object.Null:
		return WireValue{T: "null"}
	case nil:
		return WireValue{T: "null"}
	default:
		// Unreachable for the value model's closed kind set; encode the
		// rendering so the client sees something diagnosable.
		raw, _ := json.Marshal(v.String())
		return WireValue{T: "str", V: raw}
	}
}

// DecodeValue converts a wire value back to a view value.
func DecodeValue(w WireValue) (object.Value, error) {
	switch w.T {
	case "int":
		var n int64
		if err := json.Unmarshal(w.V, &n); err != nil {
			return nil, fmt.Errorf("int value: %w", err)
		}
		return object.Int(n), nil
	case "real":
		var f float64
		if err := json.Unmarshal(w.V, &f); err != nil {
			return nil, fmt.Errorf("real value: %w", err)
		}
		return object.Real(f), nil
	case "str":
		var s string
		if err := json.Unmarshal(w.V, &s); err != nil {
			return nil, fmt.Errorf("str value: %w", err)
		}
		return object.Str(s), nil
	case "bool":
		var b bool
		if err := json.Unmarshal(w.V, &b); err != nil {
			return nil, fmt.Errorf("bool value: %w", err)
		}
		return object.Bool(b), nil
	case "ref":
		return object.Ref{DB: w.DB, OID: object.OID(w.OID)}, nil
	case "set":
		elems := make([]object.Value, len(w.Elems))
		for i, e := range w.Elems {
			v, err := DecodeValue(e)
			if err != nil {
				return nil, fmt.Errorf("set elem %d: %w", i, err)
			}
			elems[i] = v
		}
		return object.NewSet(elems...), nil
	case "tuple":
		fields, err := DecodeAttrs(w.Fields)
		if err != nil {
			return nil, fmt.Errorf("tuple: %w", err)
		}
		return object.NewTuple(fields), nil
	case "null":
		return object.Null{}, nil
	default:
		return nil, fmt.Errorf("unknown value tag %q", w.T)
	}
}

// EncodeRow converts a result row.
func EncodeRow(r view.Row) map[string]WireValue {
	out := make(map[string]WireValue, len(r))
	for k, v := range r {
		out[k] = EncodeValue(v)
	}
	return out
}

// DecodeAttrs converts a wire attribute map.
func DecodeAttrs(m map[string]WireValue) (map[string]object.Value, error) {
	if m == nil {
		return nil, nil
	}
	out := make(map[string]object.Value, len(m))
	for k, w := range m {
		v, err := DecodeValue(w)
		if err != nil {
			return nil, fmt.Errorf("attr %s: %w", k, err)
		}
		out[k] = v
	}
	return out, nil
}

// WireMutation is the wire form of a view.Mutation.
type WireMutation struct {
	Kind  string               `json:"kind"` // insert | update | delete
	Class string               `json:"class"`
	ID    int                  `json:"id,omitempty"`
	Attrs map[string]WireValue `json:"attrs,omitempty"`
}

// DecodeMutation converts one wire mutation.
func DecodeMutation(w WireMutation) (view.Mutation, error) {
	var kind view.MutationKind
	switch w.Kind {
	case "insert":
		kind = view.MutInsert
	case "update":
		kind = view.MutUpdate
	case "delete":
		kind = view.MutDelete
	default:
		return view.Mutation{}, fmt.Errorf("unknown mutation kind %q", w.Kind)
	}
	attrs, err := DecodeAttrs(w.Attrs)
	if err != nil {
		return view.Mutation{}, err
	}
	return view.Mutation{Kind: kind, Class: w.Class, ID: w.ID, Attrs: attrs}, nil
}

// DecodeMutations converts a wire batch.
func DecodeMutations(ws []WireMutation) ([]view.Mutation, error) {
	out := make([]view.Mutation, len(ws))
	for i, w := range ws {
		m, err := DecodeMutation(w)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		out[i] = m
	}
	return out, nil
}

// WireRepair is the wire form of a verified repair proposal.
type WireRepair struct {
	Kind  string     `json:"kind"` // set-attr | delete-tuple
	Attr  string     `json:"attr,omitempty"`
	Value *WireValue `json:"value,omitempty"`
	ID    int        `json:"id,omitempty"`
	Text  string     `json:"text"`
}

// WireRejection is the wire form of a constraint rejection.
type WireRejection struct {
	Constraint string       `json:"constraint"`
	Classes    []string     `json:"classes,omitempty"`
	Detail     string       `json:"detail"`
	Repairs    []WireRepair `json:"repairs,omitempty"`
}

// EncodeRejection converts one rejection with its repair proposals.
func EncodeRejection(r view.Rejection) WireRejection {
	out := WireRejection{
		Constraint: r.Constraint.Expr.String(),
		Classes:    r.Constraint.Classes,
		Detail:     r.Detail,
	}
	for _, rep := range r.Repairs {
		wr := WireRepair{Kind: rep.Kind.String(), Attr: rep.Attr, ID: rep.ID, Text: rep.Text}
		if rep.Value != nil {
			v := EncodeValue(rep.Value)
			wr.Value = &v
		}
		out.Repairs = append(out.Repairs, wr)
	}
	return out
}

// EncodeRejections converts a rejection batch.
func EncodeRejections(rs []view.Rejection) []WireRejection {
	out := make([]WireRejection, len(rs))
	for i, r := range rs {
		out[i] = EncodeRejection(r)
	}
	return out
}

// WireQueryStats is the wire form of view.Stats.
type WireQueryStats struct {
	Scanned          int  `json:"scanned"`
	PrunedEmpty      bool `json:"pruned_empty,omitempty"`
	DroppedConjuncts int  `json:"dropped_conjuncts,omitempty"`
	IndexHits        int  `json:"index_hits,omitempty"`
	CandidateRows    int  `json:"candidate_rows"`
	PlanCached       bool `json:"plan_cached,omitempty"`
	ConstraintGated  bool `json:"constraint_gated,omitempty"`
	// Degraded names the members quarantined while the read was served
	// from the last-good snapshot.
	Degraded []string `json:"degraded,omitempty"`
}

// EncodeQueryStats converts the optimiser stats of one query.
func EncodeQueryStats(s view.Stats) WireQueryStats {
	return WireQueryStats{
		Scanned:          s.Scanned,
		PrunedEmpty:      s.PrunedEmpty,
		DroppedConjuncts: s.DroppedConjuncts,
		IndexHits:        s.IndexHits,
		CandidateRows:    s.CandidateRows,
		PlanCached:       s.PlanCached,
		ConstraintGated:  s.ConstraintGated,
		Degraded:         s.Degraded,
	}
}

// WireValidateStats is the wire form of view.ValidateStats.
type WireValidateStats struct {
	ConstraintsChecked int `json:"constraints_checked"`
	ConstraintsSkipped int `json:"constraints_skipped"`
	PairsChecked       int `json:"pairs_checked"`
}

// EncodeValidateStats converts delta-validation work counters.
func EncodeValidateStats(s view.ValidateStats) WireValidateStats {
	return WireValidateStats{
		ConstraintsChecked: s.ConstraintsChecked,
		ConstraintsSkipped: s.ConstraintsSkipped,
		PairsChecked:       s.PairsChecked,
	}
}
