package object

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// The binary value codec: one kind-tag byte plus a fixed- or
// varint-sized payload per value, appended into caller-owned buffers —
// no maps, no reflection, no intermediate allocations. It carries the
// full value model (Int vs Real distinguished, references and sets
// first-class), so a decoded value is Equal to, and hashes and compares
// like, the one encoded. The binary transport (internal/wire) frames
// rows and mutations with it; the durability layer (internal/store)
// writes WAL record bodies and checkpoint payloads with it.
//
// Value layout (tag byte first):
//
//	null  [1]
//	int   [2][varint zig-zag]
//	real  [3][8B IEEE-754 LE]
//	str   [4][uvarint len][bytes]
//	bool  [5][1B 0|1]
//	ref   [6][str db][uvarint oid]
//	set   [7][uvarint n][values...]      canonical element order
//	tuple [8][uvarint n][(str name, value)...]   names sorted
//
// Strings are uvarint-length-prefixed byte runs; integers are zig-zag
// varints so small negatives stay small. Every collection count is
// bounded by the bytes remaining, so a corrupt count cannot allocate
// ahead of the data backing it.
//
// Decoding comes in two strengths. DecodeValue is the transport's: an
// unknown tag, a truncated payload or a bad bool is an error, and sets
// and tuples are rebuilt through NewSet and NewTuple. The persistence
// path (AppendAttrs, Reader) is canonical as well: the encoder refuses
// a value outside the closed kind set instead of rendering it, and the
// decoder refuses any input its encoder would not have written — a
// non-minimal varint, attribute or tuple names out of order or
// repeated, set elements out of NewSet's order or repeated — so an
// accepted body re-encodes to the same bytes.

// Value tags. The set mirrors Kind exactly.
const (
	tagNull byte = 1 + iota
	tagInt
	tagReal
	tagStr
	tagBool
	tagRef
	tagSet
	tagTuple
)

// errTruncated marks input that ended mid-value.
var errTruncated = errors.New("object: truncated value")

// errNonMinimal marks a varint with redundant continuation bytes, which
// the canonical decoder refuses.
var errNonMinimal = errors.New("object: non-minimal varint")

// AppendString appends a uvarint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeString decodes a string, returning it and the bytes consumed.
func DecodeString(b []byte) (string, int, error) { return decodeString(b, false) }

// DecodeCount decodes a collection length and bounds it by the bytes
// remaining: every element needs at least one encoded byte, so a
// hostile count cannot drive a huge allocation.
func DecodeCount(b []byte) (int, int, error) { return decodeCount(b, false) }

// AppendValue appends the binary form of v — allocation-free when dst
// has capacity (pinned by TestAppendValueAllocs). A nil value encodes
// as null; a value outside the closed kind set, unreachable for the
// value model, encodes as its rendering so a peer sees something
// diagnosable. Persistence never takes this path: it encodes with
// AppendAttrs, which refuses both.
func AppendValue(dst []byte, v Value) []byte {
	dst, _ = appendValue(dst, v, false)
	return dst
}

// DecodeValue decodes one value, returning it and the bytes consumed.
func DecodeValue(b []byte) (Value, int, error) { return decodeValue(b, false) }

// AppendAttrs appends an attribute map canonically: [uvarint n] then
// (name, value) pairs in sorted name order. A nil value or one outside
// the closed kind set is an error, never a rendered string.
func AppendAttrs(dst []byte, attrs map[string]Value) ([]byte, error) {
	var buf [16]string
	names := buf[:0]
	for k := range attrs {
		names = append(names, k)
	}
	slices.Sort(names)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, k := range names {
		dst = AppendString(dst, k)
		var err error
		if dst, err = appendValue(dst, attrs[k], true); err != nil {
			return nil, fmt.Errorf("attr %s: %w", k, err)
		}
	}
	return dst, nil
}

func appendValue(dst []byte, v Value, strict bool) ([]byte, error) {
	switch v := v.(type) {
	case Int:
		dst = append(dst, tagInt)
		return binary.AppendVarint(dst, int64(v)), nil
	case Real:
		dst = append(dst, tagReal)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(v))), nil
	case Str:
		dst = append(dst, tagStr)
		return AppendString(dst, string(v)), nil
	case Bool:
		if v {
			return append(dst, tagBool, 1), nil
		}
		return append(dst, tagBool, 0), nil
	case Ref:
		dst = append(dst, tagRef)
		dst = AppendString(dst, v.DB)
		return binary.AppendUvarint(dst, uint64(v.OID)), nil
	case Set:
		dst = append(dst, tagSet)
		dst = binary.AppendUvarint(dst, uint64(len(v.elems)))
		for _, e := range v.elems {
			var err error
			if dst, err = appendValue(dst, e, strict); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case Tuple:
		dst = append(dst, tagTuple)
		dst = binary.AppendUvarint(dst, uint64(len(v.names)))
		for _, n := range v.names {
			dst = AppendString(dst, n)
			var err error
			if dst, err = appendValue(dst, v.vals[n], strict); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case Null:
		return append(dst, tagNull), nil
	case nil:
		if strict {
			return nil, fmt.Errorf("object: cannot encode nil value")
		}
		return append(dst, tagNull), nil
	default:
		if strict {
			return nil, fmt.Errorf("object: cannot encode value of kind %s", v.Kind())
		}
		dst = append(dst, tagStr)
		return AppendString(dst, v.String()), nil
	}
}

// decodeUvarint decodes a uvarint; strict refuses a non-minimal one
// (its last byte zero), which a re-encode would shorten.
func decodeUvarint(b []byte, strict bool) (uint64, int, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, 0, errTruncated
	}
	if strict && k > 1 && b[k-1] == 0 {
		return 0, 0, errNonMinimal
	}
	return n, k, nil
}

func decodeString(b []byte, strict bool) (string, int, error) {
	n, k, err := decodeUvarint(b, strict)
	if err != nil {
		return "", 0, err
	}
	if n > uint64(len(b)-k) {
		return "", 0, errTruncated
	}
	return string(b[k : k+int(n)]), k + int(n), nil
}

func decodeCount(b []byte, strict bool) (int, int, error) {
	n, k, err := decodeUvarint(b, strict)
	if err != nil {
		return 0, 0, err
	}
	if n > uint64(len(b)-k) {
		return 0, 0, errTruncated
	}
	return int(n), k, nil
}

func decodeValue(b []byte, strict bool) (Value, int, error) {
	if len(b) == 0 {
		return nil, 0, errTruncated
	}
	tag, b2 := b[0], b[1:]
	switch tag {
	case tagNull:
		return Null{}, 1, nil
	case tagInt:
		u, k, err := decodeUvarint(b2, strict)
		if err != nil {
			return nil, 0, err
		}
		return Int(int64(u>>1) ^ -int64(u&1)), 1 + k, nil
	case tagReal:
		if len(b2) < 8 {
			return nil, 0, errTruncated
		}
		return Real(math.Float64frombits(binary.LittleEndian.Uint64(b2))), 9, nil
	case tagStr:
		s, k, err := decodeString(b2, strict)
		if err != nil {
			return nil, 0, err
		}
		return Str(s), 1 + k, nil
	case tagBool:
		if len(b2) < 1 {
			return nil, 0, errTruncated
		}
		switch b2[0] {
		case 0:
			return Bool(false), 2, nil
		case 1:
			return Bool(true), 2, nil
		default:
			return nil, 0, fmt.Errorf("object: bool payload %d", b2[0])
		}
	case tagRef:
		db, k, err := decodeString(b2, strict)
		if err != nil {
			return nil, 0, err
		}
		oid, k2, err := decodeUvarint(b2[k:], strict)
		if err != nil {
			return nil, 0, err
		}
		return Ref{DB: db, OID: OID(oid)}, 1 + k + k2, nil
	case tagSet:
		n, k, err := decodeCount(b2, strict)
		if err != nil {
			return nil, 0, err
		}
		off := k
		elems := make([]Value, n)
		for i := range elems {
			v, k2, err := decodeValue(b2[off:], strict)
			if err != nil {
				return nil, 0, fmt.Errorf("object: set elem %d: %w", i, err)
			}
			elems[i] = v
			off += k2
		}
		if !strict {
			return NewSet(elems...), 1 + off, nil
		}
		if err := checkCanonicalSet(elems); err != nil {
			return nil, 0, err
		}
		return Set{elems: elems}, 1 + off, nil
	case tagTuple:
		n, k, err := decodeCount(b2, strict)
		if err != nil {
			return nil, 0, err
		}
		off := k
		names := make([]string, 0, n)
		fields := make(map[string]Value, n)
		for i := 0; i < n; i++ {
			name, k2, err := decodeString(b2[off:], strict)
			if err != nil {
				return nil, 0, fmt.Errorf("object: tuple field %d: %w", i, err)
			}
			off += k2
			if strict && i > 0 && name <= names[i-1] {
				return nil, 0, fmt.Errorf("object: tuple field %q out of order", name)
			}
			v, k3, err := decodeValue(b2[off:], strict)
			if err != nil {
				return nil, 0, fmt.Errorf("object: tuple field %q: %w", name, err)
			}
			names = append(names, name)
			fields[name] = v
			off += k3
		}
		if !strict {
			return NewTuple(fields), 1 + off, nil
		}
		return Tuple{names: names, vals: fields}, 1 + off, nil
	default:
		return nil, 0, fmt.Errorf("object: unknown value tag %d", tag)
	}
}

// checkCanonicalSet accepts elements exactly as NewSet leaves them:
// no element Equal to an earlier one, none ordered before its
// predecessor.
func checkCanonicalSet(elems []Value) error {
	for i := 1; i < len(elems); i++ {
		if totalLess(elems[i], elems[i-1]) {
			return fmt.Errorf("object: set elem %d out of order", i)
		}
		for _, e := range elems[:i] {
			if e.Equal(elems[i]) {
				return fmt.Errorf("object: set elem %d repeats an earlier one", i)
			}
		}
	}
	return nil
}

// Reader decodes a canonical persistence body field by field. The
// first error sticks: later reads return zero values, and Err or Close
// reports it, so a decoder reads a whole record and checks once.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err reports the first decoding error.
func (r *Reader) Err() error { return r.err }

// Close reports the first decoding error, or an error if bytes are
// left over: a canonical body is consumed exactly.
func (r *Reader) Close() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("object: %d trailing bytes", len(r.b))
	}
	return r.err
}

// Fail records err unless an earlier error stuck, so a caller's own
// validation joins the reader's error path.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.err = errTruncated
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Uvarint reads a minimal uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	n, k, err := decodeUvarint(r.b, true)
	if err != nil {
		r.err = err
		return 0
	}
	r.b = r.b[k:]
	return n
}

// Count reads a collection length bounded by the bytes remaining.
func (r *Reader) Count() int {
	if r.err != nil {
		return 0
	}
	n, k, err := decodeCount(r.b, true)
	if err != nil {
		r.err = err
		return 0
	}
	r.b = r.b[k:]
	return n
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	if r.err != nil {
		return ""
	}
	s, k, err := decodeString(r.b, true)
	if err != nil {
		r.err = err
		return ""
	}
	r.b = r.b[k:]
	return s
}

// Bytes reads a length-prefixed byte run (AppendString's layout),
// copied out of the input.
func (r *Reader) Bytes() []byte {
	n := r.Count()
	if r.err != nil {
		return nil
	}
	out := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return out
}

// Attrs reads an attribute map written by AppendAttrs; an empty map
// reads as nil.
func (r *Reader) Attrs() map[string]Value {
	n := r.Count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make(map[string]Value, n)
	prev := ""
	for i := 0; i < n; i++ {
		name := r.String()
		if r.err != nil {
			return nil
		}
		if i > 0 && name <= prev {
			r.err = fmt.Errorf("object: attr %q out of order", name)
			return nil
		}
		v, k, err := decodeValue(r.b, true)
		if err != nil {
			r.err = fmt.Errorf("attr %s: %w", name, err)
			return nil
		}
		r.b = r.b[k:]
		out[name] = v
		prev = name
	}
	return out
}
