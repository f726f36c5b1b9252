package wire

import (
	"encoding/binary"
	"fmt"

	"interopdb/internal/object"
	"interopdb/internal/view"
)

// Rows, mutations and stats, framed with the binary value codec in
// internal/object (its layout table is there).

// errTruncated marks a body that ended mid-field.
var errTruncated = fmt.Errorf("wire: truncated value")

// AppendValue, AppendString and DecodeString forward to the value
// codec, for the repository benchmark (benchmark/layers.go), which
// times the codec under these names.

// AppendValue forwards to object.AppendValue.
func AppendValue(dst []byte, v object.Value) []byte { return object.AppendValue(dst, v) }

// AppendString forwards to object.AppendString.
func AppendString(dst []byte, s string) []byte { return object.AppendString(dst, s) }

// DecodeString forwards to object.DecodeString.
func DecodeString(b []byte) (string, int, error) { return object.DecodeString(b) }

// AppendRow appends one result row: [uvarint ncols][(name, value)...].
// Column order follows the engine's map iteration — the decoded Row is
// the same map either way, and the differential tests compare rows
// after canonicalisation, so no sort is spent on the hot path.
func AppendRow(dst []byte, r view.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for k, v := range r {
		dst = object.AppendString(dst, k)
		dst = object.AppendValue(dst, v)
	}
	return dst
}

// DecodeRow decodes one row, returning it and the bytes consumed.
func DecodeRow(b []byte) (view.Row, int, error) {
	n, k, err := object.DecodeCount(b)
	if err != nil {
		return nil, 0, err
	}
	off := k
	row := make(view.Row, n)
	for i := 0; i < n; i++ {
		name, k2, err := object.DecodeString(b[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("wire: row col %d: %w", i, err)
		}
		off += k2
		v, k3, err := object.DecodeValue(b[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("wire: row col %q: %w", name, err)
		}
		row[name] = v
		off += k3
	}
	return row, off, nil
}

// AppendMutation appends one mutation:
// [1B kind][str class][varint id][uvarint nattrs][(name, value)...].
func AppendMutation(dst []byte, m view.Mutation) []byte {
	dst = append(dst, byte(m.Kind))
	dst = object.AppendString(dst, m.Class)
	dst = binary.AppendVarint(dst, int64(m.ID))
	dst = binary.AppendUvarint(dst, uint64(len(m.Attrs)))
	for k, v := range m.Attrs {
		dst = object.AppendString(dst, k)
		dst = object.AppendValue(dst, v)
	}
	return dst
}

// DecodeMutation decodes one mutation, returning it and the bytes
// consumed.
func DecodeMutation(b []byte) (view.Mutation, int, error) {
	var m view.Mutation
	if len(b) == 0 {
		return m, 0, errTruncated
	}
	kind := view.MutationKind(b[0])
	switch kind {
	case view.MutInsert, view.MutUpdate, view.MutDelete:
	default:
		return m, 0, fmt.Errorf("wire: unknown mutation kind %d", b[0])
	}
	m.Kind = kind
	off := 1
	class, k, err := object.DecodeString(b[off:])
	if err != nil {
		return m, 0, err
	}
	m.Class = class
	off += k
	id, k2 := binary.Varint(b[off:])
	if k2 <= 0 {
		return m, 0, errTruncated
	}
	m.ID = int(id)
	off += k2
	n, k3, err := object.DecodeCount(b[off:])
	if err != nil {
		return m, 0, err
	}
	off += k3
	if n > 0 {
		m.Attrs = make(map[string]object.Value, n)
	}
	for i := 0; i < n; i++ {
		name, k4, err := object.DecodeString(b[off:])
		if err != nil {
			return m, 0, fmt.Errorf("wire: mutation attr %d: %w", i, err)
		}
		off += k4
		v, k5, err := object.DecodeValue(b[off:])
		if err != nil {
			return m, 0, fmt.Errorf("wire: mutation attr %q: %w", name, err)
		}
		m.Attrs[name] = v
		off += k5
	}
	return m, off, nil
}

// AppendQueryStats appends view.Stats. Booleans pack into one flag
// byte; the counters are uvarints. Degraded member names follow.
func AppendQueryStats(dst []byte, s view.Stats) []byte {
	var flags byte
	if s.PrunedEmpty {
		flags |= 1
	}
	if s.PlanCached {
		flags |= 2
	}
	if s.ConstraintGated {
		flags |= 4
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(s.Scanned))
	dst = binary.AppendUvarint(dst, uint64(s.DroppedConjuncts))
	dst = binary.AppendUvarint(dst, uint64(s.IndexHits))
	dst = binary.AppendUvarint(dst, uint64(s.CandidateRows))
	dst = binary.AppendUvarint(dst, uint64(len(s.Degraded)))
	for _, m := range s.Degraded {
		dst = object.AppendString(dst, m)
	}
	return dst
}

// DecodeQueryStats decodes view.Stats, returning it and the bytes
// consumed.
func DecodeQueryStats(b []byte) (view.Stats, int, error) {
	var s view.Stats
	if len(b) == 0 {
		return s, 0, errTruncated
	}
	flags := b[0]
	s.PrunedEmpty = flags&1 != 0
	s.PlanCached = flags&2 != 0
	s.ConstraintGated = flags&4 != 0
	off := 1
	for _, dst := range []*int{&s.Scanned, &s.DroppedConjuncts, &s.IndexHits, &s.CandidateRows} {
		n, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return s, 0, errTruncated
		}
		*dst = int(n)
		off += k
	}
	n, k, err := object.DecodeCount(b[off:])
	if err != nil {
		return s, 0, err
	}
	off += k
	for i := 0; i < n; i++ {
		m, k2, err := object.DecodeString(b[off:])
		if err != nil {
			return s, 0, err
		}
		s.Degraded = append(s.Degraded, m)
		off += k2
	}
	return s, off, nil
}

// AppendValidateStats appends view.ValidateStats as three uvarints.
func AppendValidateStats(dst []byte, s view.ValidateStats) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.ConstraintsChecked))
	dst = binary.AppendUvarint(dst, uint64(s.ConstraintsSkipped))
	return binary.AppendUvarint(dst, uint64(s.PairsChecked))
}

// DecodeValidateStats decodes view.ValidateStats.
func DecodeValidateStats(b []byte) (view.ValidateStats, int, error) {
	var s view.ValidateStats
	off := 0
	for _, dst := range []*int{&s.ConstraintsChecked, &s.ConstraintsSkipped, &s.PairsChecked} {
		n, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return s, 0, errTruncated
		}
		*dst = int(n)
		off += k
	}
	return s, off, nil
}
