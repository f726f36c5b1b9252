package server

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzCodecRoundTrip drives the wire codec with arbitrary tagged-JSON
// payloads. The codec fronts every client-supplied value (query
// constants, mutation attributes), so its contract is pinned here: the
// decoder never panics, and any wire value it ACCEPTS reaches a
// fixpoint — re-encoding the decoded value and decoding again yields an
// equal value and byte-stable wire form. (A first decode may
// canonicalise — set elements are deduplicated and sorted — but a
// second round trip must change nothing.)
func FuzzCodecRoundTrip(f *testing.F) {
	for _, seed := range []string{
		`{"t":"int","v":42}`,
		`{"t":"int","v":-9007199254740993}`,
		`{"t":"real","v":49.95}`,
		`{"t":"real","v":-0}`,
		`{"t":"str","v":"UNIX"}`,
		`{"t":"str","v":"quoted \"where\" clause"}`,
		`{"t":"bool","v":true}`,
		`{"t":"null"}`,
		`{"t":"ref","db":"Bookseller","oid":2}`,
		`{"t":"ref","db":"","oid":0}`,
		`{"t":"set","elems":[{"t":"str","v":"databases"},{"t":"str","v":"systems"}]}`,
		`{"t":"set","elems":[{"t":"int","v":1},{"t":"real","v":1},{"t":"int","v":1}]}`,
		`{"t":"set","elems":[{"t":"set","elems":[{"t":"null"}]}]}`,
		`{"t":"set"}`,
		`{"t":"tuple","fields":{"city":{"t":"str","v":"Rome"},"n":{"t":"int","v":3}}}`,
		`{"t":"tuple","fields":{"at":{"t":"tuple","fields":{"x":{"t":"real","v":1}}}}}`,
		`{"t":"tuple"}`,
		`{"t":"tuple","fields":{"bad":{"t":"frob"}}}`,
		`{"t":"int","v":"not a number"}`,
		`{"t":"frob","v":1}`,
		`{"t":""}`,
		`[]`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var w WireValue
		if err := json.Unmarshal(data, &w); err != nil {
			return // not a wire value at all
		}
		v, err := DecodeValue(w)
		if err != nil {
			return // rejected payload: the only contract is "no panic"
		}
		if v == nil {
			t.Fatalf("DecodeValue(%s) returned nil without an error", data)
		}
		re := EncodeValue(v)
		v2, err := DecodeValue(re)
		if err != nil {
			t.Fatalf("re-decoding the codec's own encoding of %s failed: %v (wire %+v)", data, err, re)
		}
		if !v2.Equal(v) {
			t.Fatalf("round trip of %s is not a fixpoint: %v != %v", data, v2, v)
		}
		if re2 := EncodeValue(v2); !reflect.DeepEqual(re2, re) {
			t.Fatalf("wire form of %s is not byte-stable: %+v != %+v", data, re2, re)
		}
	})
}
