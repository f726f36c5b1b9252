package wire

import (
	"encoding/binary"
	"fmt"

	"interopdb/internal/object"
	"interopdb/internal/view"
)

// Request and response body codecs, layered on the value codec. Every
// body is self-delimiting, so a frame carries exactly one message.

// Error codes carried by OpErr frames. They partition failures the way
// the HTTP transport's status codes do: internal/server's classify
// maps each typed sentinel to one status and one of these codes.
const (
	// CodeBadRequest: the request was malformed (parse error, empty op
	// list, unknown mutation kind). Don't retry unchanged.
	CodeBadRequest byte = 1
	// CodeUnknownTenant: the server does not host the named tenant.
	CodeUnknownTenant byte = 2
	// CodeNotFound: unknown class or view object.
	CodeNotFound byte = 3
	// CodeRejected: the mutation batch violated derived global
	// constraints; the body carries the rejections with repairs.
	CodeRejected byte = 4
	// CodeUnavailable: a member outage or partial commit; retry after
	// the hinted delay (member outage) or poll health (partial commit).
	CodeUnavailable byte = 5
	// CodeAdmission: the server is at its admission limit; retryable.
	CodeAdmission byte = 6
	// CodeDraining: the server is shutting down; go elsewhere.
	CodeDraining byte = 7
	// CodeCancelled: the request's context was cancelled (usually by an
	// OpCancel frame from this same connection).
	CodeCancelled byte = 8
	// CodeUnknownHandle: OpExec named a prepared handle this connection
	// never registered; the client re-prepares transparently.
	CodeUnknownHandle byte = 9
	// CodeInternal: everything else.
	CodeInternal byte = 10
)

// Rejection is the client-facing decode of one constraint rejection —
// the binary counterpart of the HTTP transport's WireRejection.
type Rejection struct {
	Constraint string
	Classes    []string
	Detail     string
	Repairs    []Repair
}

// Repair is one decoded repair proposal.
type Repair struct {
	Kind   string
	Attr   string
	Text   string
	ID     int
	HasVal bool
	Value  object.Value
}

// Error is the typed error a client call returns for an OpErr frame.
type Error struct {
	Code       byte
	Msg        string
	Rejections []Rejection
	RetryAfter int // seconds, for CodeUnavailable/CodeAdmission
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("wire: %s (code %d)", e.Msg, e.Code)
}

// appendErrBody encodes an OpErr body:
// [1B code][uvarint retry-after s][str msg][uvarint nrej][rejections].
func appendErrBody(dst []byte, code byte, retryAfter int, msg string, rejs []view.Rejection) []byte {
	dst = append(dst, code)
	dst = binary.AppendUvarint(dst, uint64(retryAfter))
	dst = AppendString(dst, msg)
	dst = binary.AppendUvarint(dst, uint64(len(rejs)))
	for _, r := range rejs {
		con := ""
		if r.Constraint.Expr != nil {
			con = r.Constraint.Expr.String()
		}
		dst = AppendString(dst, con)
		dst = binary.AppendUvarint(dst, uint64(len(r.Constraint.Classes)))
		for _, c := range r.Constraint.Classes {
			dst = AppendString(dst, c)
		}
		dst = AppendString(dst, r.Detail)
		dst = binary.AppendUvarint(dst, uint64(len(r.Repairs)))
		for _, rep := range r.Repairs {
			dst = AppendString(dst, rep.Kind.String())
			dst = AppendString(dst, rep.Attr)
			dst = AppendString(dst, rep.Text)
			dst = binary.AppendVarint(dst, int64(rep.ID))
			if rep.Value != nil {
				dst = append(dst, 1)
				dst = AppendValue(dst, rep.Value)
			} else {
				dst = append(dst, 0)
			}
		}
	}
	return dst
}

// decodeErrBody decodes an OpErr body into the client's typed error.
func decodeErrBody(b []byte) (*Error, error) {
	if len(b) == 0 {
		return nil, errTruncated
	}
	e := &Error{Code: b[0]}
	off := 1
	ra, k := binary.Uvarint(b[off:])
	if k <= 0 {
		return nil, errTruncated
	}
	e.RetryAfter = int(ra)
	off += k
	msg, k2, err := DecodeString(b[off:])
	if err != nil {
		return nil, err
	}
	e.Msg = msg
	off += k2
	nrej, k3, err := decodeCount(b[off:])
	if err != nil {
		return nil, err
	}
	off += k3
	for i := 0; i < nrej; i++ {
		var rej Rejection
		if rej.Constraint, k, err = DecodeString(b[off:]); err != nil {
			return nil, err
		}
		off += k
		ncls, k4, err := decodeCount(b[off:])
		if err != nil {
			return nil, err
		}
		off += k4
		for j := 0; j < ncls; j++ {
			c, k5, err := DecodeString(b[off:])
			if err != nil {
				return nil, err
			}
			rej.Classes = append(rej.Classes, c)
			off += k5
		}
		if rej.Detail, k, err = DecodeString(b[off:]); err != nil {
			return nil, err
		}
		off += k
		nrep, k6, err := decodeCount(b[off:])
		if err != nil {
			return nil, err
		}
		off += k6
		for j := 0; j < nrep; j++ {
			var rep Repair
			if rep.Kind, k, err = DecodeString(b[off:]); err != nil {
				return nil, err
			}
			off += k
			if rep.Attr, k, err = DecodeString(b[off:]); err != nil {
				return nil, err
			}
			off += k
			if rep.Text, k, err = DecodeString(b[off:]); err != nil {
				return nil, err
			}
			off += k
			id, k7 := binary.Varint(b[off:])
			if k7 <= 0 {
				return nil, errTruncated
			}
			rep.ID = int(id)
			off += k7
			if off >= len(b) {
				return nil, errTruncated
			}
			hasVal := b[off]
			off++
			if hasVal == 1 {
				v, k8, err := DecodeValue(b[off:])
				if err != nil {
					return nil, err
				}
				rep.HasVal, rep.Value = true, v
				off += k8
			}
			rej.Repairs = append(rej.Repairs, rep)
		}
		e.Rejections = append(e.Rejections, rej)
	}
	return e, nil
}

// appendQueryReq encodes an OpQuery/OpPrepare body: [tenant][query].
func appendQueryReq(dst []byte, tenant, q string) []byte {
	dst = AppendString(dst, tenant)
	return AppendString(dst, q)
}

// decodeQueryReq decodes an OpQuery/OpPrepare body.
func decodeQueryReq(b []byte) (tenant, q string, err error) {
	tenant, k, err := DecodeString(b)
	if err != nil {
		return "", "", err
	}
	q, _, err = DecodeString(b[k:])
	return tenant, q, err
}

// appendExecReq encodes an OpExec body: [tenant][8B handle LE].
func appendExecReq(dst []byte, tenant string, handle uint64) []byte {
	dst = AppendString(dst, tenant)
	return binary.LittleEndian.AppendUint64(dst, handle)
}

// decodeExecReq decodes an OpExec body.
func decodeExecReq(b []byte) (tenant string, handle uint64, err error) {
	tenant, k, err := DecodeString(b)
	if err != nil {
		return "", 0, err
	}
	if len(b)-k < 8 {
		return "", 0, errTruncated
	}
	return tenant, binary.LittleEndian.Uint64(b[k:]), nil
}

// appendTxReq encodes an OpTx body:
// [tenant][1B flags][uvarint nops][mutations...].
func appendTxReq(dst []byte, tenant string, ops []view.Mutation, validateOnly bool) []byte {
	dst = AppendString(dst, tenant)
	var flags byte
	if validateOnly {
		flags |= txValidateOnly
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for _, m := range ops {
		dst = AppendMutation(dst, m)
	}
	return dst
}

// decodeTxReq decodes an OpTx body.
func decodeTxReq(b []byte) (tenant string, ops []view.Mutation, validateOnly bool, err error) {
	tenant, k, err := DecodeString(b)
	if err != nil {
		return "", nil, false, err
	}
	off := k
	if off >= len(b) {
		return "", nil, false, errTruncated
	}
	validateOnly = b[off]&txValidateOnly != 0
	off++
	n, k2, err := decodeCount(b[off:])
	if err != nil {
		return "", nil, false, err
	}
	off += k2
	ops = make([]view.Mutation, n)
	for i := range ops {
		m, k3, err := DecodeMutation(b[off:])
		if err != nil {
			return "", nil, false, fmt.Errorf("op %d: %w", i, err)
		}
		ops[i] = m
		off += k3
	}
	return tenant, ops, validateOnly, nil
}

// appendRowsBody encodes an OpRows body: [stats][uvarint nrows][rows].
func appendRowsBody(dst []byte, rows []view.Row, stats view.Stats) []byte {
	dst = AppendQueryStats(dst, stats)
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, r := range rows {
		dst = AppendRow(dst, r)
	}
	return dst
}

// decodeRowsBody decodes an OpRows body.
func decodeRowsBody(b []byte) ([]view.Row, view.Stats, error) {
	stats, k, err := DecodeQueryStats(b)
	if err != nil {
		return nil, stats, err
	}
	off := k
	n, k2, err := decodeCount(b[off:])
	if err != nil {
		return nil, stats, err
	}
	off += k2
	rows := make([]view.Row, n)
	for i := range rows {
		r, k3, err := DecodeRow(b[off:])
		if err != nil {
			return nil, stats, fmt.Errorf("row %d: %w", i, err)
		}
		rows[i] = r
		off += k3
	}
	return rows, stats, nil
}

// appendTxOKBody encodes an OpTxOK body: [uvarint applied][vstats].
func appendTxOKBody(dst []byte, applied int, vs view.ValidateStats) []byte {
	dst = binary.AppendUvarint(dst, uint64(applied))
	return AppendValidateStats(dst, vs)
}

// decodeTxOKBody decodes an OpTxOK body.
func decodeTxOKBody(b []byte) (int, view.ValidateStats, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, view.ValidateStats{}, errTruncated
	}
	vs, _, err := DecodeValidateStats(b[k:])
	return int(n), vs, err
}
