package server

import (
	"encoding/json"
	"testing"

	"interopdb/internal/object"
)

// TestValueCodecRoundTrip pins the tagged value codec over every kind
// of the value model — in particular that Int and Real survive the trip
// distinctly (plain JSON numbers cannot tell them apart).
func TestValueCodecRoundTrip(t *testing.T) {
	values := []object.Value{
		object.Int(0),
		object.Int(-42),
		object.Int(1<<53 + 1), // would lose precision as a float64
		object.Real(49.95),
		object.Real(50), // integral real must NOT come back as Int
		object.Str(""),
		object.Str("O'Reilly \"quoted\""),
		object.Bool(true),
		object.Bool(false),
		object.Null{},
		object.Ref{DB: "Bookseller", OID: 2},
		object.NewSet(object.Int(5), object.Int(8)),
		object.NewSet(), // empty set
		object.NewSet(object.Str("a"), object.NewSet(object.Int(1))),
		object.NewTuple(map[string]object.Value{"city": object.Str("Rome"), "n": object.Int(3)}),
		object.NewTuple(nil), // empty tuple
		object.NewTuple(map[string]object.Value{
			"at": object.NewTuple(map[string]object.Value{"x": object.Real(1)}),
			"in": object.NewSet(object.NewTuple(map[string]object.Value{"k": object.Null{}})),
		}),
	}
	for _, v := range values {
		wire := EncodeValue(v)
		raw, err := json.Marshal(wire)
		if err != nil {
			t.Fatalf("%v: marshal: %v", v, err)
		}
		var back WireValue
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%v: unmarshal: %v", v, err)
		}
		got, err := DecodeValue(back)
		if err != nil {
			t.Fatalf("%v: decode: %v", v, err)
		}
		if got.Kind() != v.Kind() {
			t.Errorf("%v: kind changed over the wire: %v -> %v", v, v.Kind(), got.Kind())
		}
		if !got.Equal(v) {
			t.Errorf("value changed over the wire: %v -> %v (json %s)", v, got, raw)
		}
	}
}

// TestValueCodecStrictDecode pins that malformed wire values are
// errors, never silent Nulls.
func TestValueCodecStrictDecode(t *testing.T) {
	bad := []WireValue{
		{T: "frob"},
		{T: "int", V: json.RawMessage(`"not a number"`)},
		{T: "real", V: json.RawMessage(`[]`)},
		{T: "set", Elems: []WireValue{{T: "mystery"}}},
		{T: "tuple", Fields: map[string]WireValue{"city": {T: "str", V: json.RawMessage(`7`)}}},
	}
	for _, w := range bad {
		if v, err := DecodeValue(w); err == nil {
			t.Errorf("DecodeValue(%+v) = %v, want error", w, v)
		}
	}
}

// TestMutationDecode pins kind mapping and attr decoding.
func TestMutationDecode(t *testing.T) {
	m, err := DecodeMutation(WireMutation{
		Kind: "update", Class: "Item", ID: 7,
		Attrs: map[string]WireValue{"shopprice": EncodeValue(object.Real(12.5))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Class != "Item" || m.ID != 7 || !m.Attrs["shopprice"].Equal(object.Real(12.5)) {
		t.Errorf("decoded mutation %+v", m)
	}
	if _, err := DecodeMutation(WireMutation{Kind: "upsert"}); err == nil {
		t.Error("unknown kind decoded without error")
	}
}
