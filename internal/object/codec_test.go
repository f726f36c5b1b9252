package object

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func sampleSet() Value {
	return NewSet(Int(1), Str("two"), Null{})
}

func sampleTuple() Value {
	return NewTuple(map[string]Value{
		"n":   Int(-42),
		"r":   Real(3.25),
		"s":   Str("münchen"),
		"b":   Bool(true),
		"ref": Ref{DB: "db1", OID: 7},
		"set": sampleSet(),
	})
}

func valueEqual(a, b Value) bool { return a.Equal(b) }

func TestValueRoundTrip(t *testing.T) {
	vals := []Value{
		Null{},
		Int(0), Int(-1), Int(1 << 40),
		Real(0), Real(-2.5),
		Str(""), Str("hello"),
		Bool(true), Bool(false),
		Ref{DB: "remote", OID: 123456},
		sampleSet(),
		sampleTuple(),
	}
	for _, v := range vals {
		enc := AppendValue(nil, v)
		got, n, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("%v: decode: %v", v, err)
		}
		if n != len(enc) {
			t.Fatalf("%v: consumed %d of %d bytes", v, n, len(enc))
		}
		if !valueEqual(v, got) {
			t.Fatalf("round trip changed %v to %v", v, got)
		}
	}
}

func TestValueDecodeRejectsCorrupt(t *testing.T) {
	cases := [][]byte{
		{},                    // empty
		{99},                  // unknown tag
		{tagInt},              // missing varint
		{tagReal, 1, 2, 3},    // short real
		{tagBool},             // missing payload
		{tagBool, 7},          // bad bool payload
		{tagStr, 5, 'a'},      // short string
		{tagSet, 200, 1},      // count exceeds remaining bytes
		{tagTuple, 1, 1, 'a'}, // field name without value
		{tagRef, 3, 'd', 'b'}, // ref missing oid
	}
	for _, c := range cases {
		if _, _, err := DecodeValue(c); err == nil {
			t.Errorf("decode(%v) accepted corrupt input", c)
		}
	}
}

// TestAppendValueAllocs pins the zero-allocation value tagging: with a
// warm buffer, encoding a scalar row costs nothing on the heap.
func TestAppendValueAllocs(t *testing.T) {
	buf := make([]byte, 0, 256)
	row := map[string]Value{"title": Str("snow crash"), "rating": Int(9)}
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		for k, v := range row {
			buf = AppendString(buf, k)
			buf = AppendValue(buf, v)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendRow allocated %.1f times per run, want 0", allocs)
	}
}

// FuzzValueDecode holds the value codec to the same discipline: no
// panic on arbitrary bytes, and any value that decodes must re-encode
// and decode to an equal value (full round trip through the closed
// value model).
func FuzzValueDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{tagNull})
	f.Add(AppendValue(nil, sampleTuple()))
	f.Add(AppendValue(nil, sampleSet()))
	f.Add([]byte{tagSet, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // hostile count
	f.Add([]byte{tagTuple, 2, 1, 'a'})                  // truncated tuple
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := DecodeValue(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d out of range", n)
		}
		re := AppendValue(nil, v)
		v2, n2, err := DecodeValue(re)
		if err != nil || n2 != len(re) {
			t.Fatalf("re-encode of decoded value does not decode cleanly: %v", err)
		}
		if !valueEqual(v, v2) {
			t.Fatalf("value round trip changed %v to %v", v, v2)
		}
	})
}

// foreign is a Value outside the closed kind set.
type foreign struct{}

func (foreign) Kind() Kind         { return Kind(99) }
func (foreign) Equal(v Value) bool { _, ok := v.(foreign); return ok }
func (foreign) String() string     { return "foreign" }

// TestAttrsRoundTrip pins the persistence encoding: sorted names, every
// kind decoded back Equal and of the same kind, an empty map read as
// nil, and the bytes of a re-encode identical to the first.
func TestAttrsRoundTrip(t *testing.T) {
	attrs := map[string]Value{
		"z": sampleTuple(), "a": Int(-7), "m": Real(math.Inf(-1)),
		"nan": Real(math.NaN()), "n": Null{}, "s": sampleSet(),
		"r": Ref{DB: "db", OID: 1 << 33}, "b": Bool(false), "t": Str("x"),
		"nested": NewSet(NewSet(Str("a")), NewSet(Int(1)), NewTuple(map[string]Value{"k": Real(2)})),
	}
	enc, err := AppendAttrs(nil, attrs)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(enc)
	got := r.Attrs()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(attrs) {
		t.Fatalf("decoded %d attrs, want %d", len(got), len(attrs))
	}
	for k, v := range attrs {
		g := got[k]
		if g == nil || g.Kind() != v.Kind() || (k != "nan" && !g.Equal(v)) {
			t.Errorf("attr %s: got %v, want %v", k, g, v)
		}
	}
	re, err := AppendAttrs(nil, got)
	if err != nil || !bytes.Equal(re, enc) {
		t.Fatalf("re-encode differs: %v\n%x\n%x", err, enc, re)
	}

	empty, _ := AppendAttrs(nil, map[string]Value{})
	if r := NewReader(empty); r.Attrs() != nil || r.Close() != nil {
		t.Fatal("empty attrs did not read back as nil")
	}
}

// TestAttrsRefuseOutsideKinds pins that persistence never writes the
// transport's fallbacks: a nil value or one outside the closed kind set
// is an error, at the top level and nested.
func TestAttrsRefuseOutsideKinds(t *testing.T) {
	for _, v := range []Value{nil, foreign{}, NewSet(foreign{}), NewTuple(map[string]Value{"f": nil})} {
		if _, err := AppendAttrs(nil, map[string]Value{"a": v}); err == nil {
			t.Errorf("AppendAttrs accepted %#v", v)
		}
	}
	if b := AppendValue(nil, foreign{}); b[0] != tagStr {
		t.Errorf("AppendValue(foreign) = %v, want the rendered string", b)
	}
}

// TestReaderRejectsNonCanonical pins the canonical decoder: input its
// encoder would not have written is an error, even where the transport
// decoder accepts it.
func TestReaderRejectsNonCanonical(t *testing.T) {
	attr := func(name string, val ...byte) []byte { return append(AppendString(nil, name), val...) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := map[string][]byte{
		"non-minimal count":  {0x81, 0x00},
		"non-minimal int":    cat([]byte{1}, attr("a", tagInt, 0x80, 0x00)),
		"names out of order": cat([]byte{2}, attr("b", tagNull), attr("a", tagNull)),
		"repeated name":      cat([]byte{2}, attr("a", tagNull), attr("a", tagNull)),
		"set out of order":   cat([]byte{1}, attr("s", tagSet, 2, tagInt, 4, tagInt, 2)),
		"set repeats":        cat([]byte{1}, attr("s", tagSet, 2, tagInt, 2, tagReal), binary.LittleEndian.AppendUint64(nil, math.Float64bits(1))),
		"tuple out of order": cat([]byte{1}, attr("t", tagTuple, 2), attr("b", tagNull), attr("a", tagNull)),
		"trailing byte":      {0, 0},
	}
	for name, b := range cases {
		r := NewReader(b)
		r.Attrs()
		if err := r.Close(); err == nil {
			t.Errorf("%s: accepted %x", name, b)
		}
	}
}
