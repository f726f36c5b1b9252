// Package wire implements the binary transport that closes the gap
// between wire serving and the in-process engine (wire-point-read's
// server.residual_us_per_op and wire.codec_us_per_op against
// view.run_us_per_plan_hit): on µs-scale plan-cache-hit queries the
// HTTP/JSON framing bill *is* the latency, so this package replaces it
// with persistent length-prefixed framed connections (the CRC/codec
// discipline proven in internal/store's WAL), multiplexed request IDs
// so one connection pipelines many in-flight queries and transactions,
// a kind-tagged binary value codec with append-style zero-copy
// encoding, and prepared queries — register a query text once, get a
// handle, and every subsequent execution skips the parser and goes
// straight to the engine's snapshot plan cache keyed by
// expr.Fingerprint.
//
// The package is transport-only: it defines the frame format, the
// value codec, the server loop and the client, all against a Backend
// interface the hosting process implements (internal/server binds it
// to its tenants, admission control and metrics). See DESIGN.md §14.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Connection preamble and frame format, mirroring the WAL's framing
// (store/wal.go) so the same torn/corrupt-detection discipline applies
// to bytes arriving off a socket:
//
//	preamble: client sends the 8-byte magic "IDBWIRE1" once at connect
//	frame:    [4B payload len LE][4B CRC32C(payload) LE][payload]
//	payload:  [1B opcode][8B request id LE][body]
//
// The CRC covers the whole payload, so a corrupted frame is detected
// and the connection is closed — a framing error leaves no trustworthy
// resynchronisation point, exactly like a damaged WAL tail. Request
// IDs are assigned by the client, echoed on every response frame, and
// need only be unique among that connection's in-flight requests —
// which is what lets one connection pipeline many requests and match
// responses arriving out of order.

const (
	// Magic is the connection preamble the client sends at connect.
	Magic = "IDBWIRE1"
	// frameOverhead is the per-frame framing cost (length + CRC).
	frameOverhead = 8
	// payloadOverhead is the opcode byte plus the request ID.
	payloadOverhead = 9
	// MaxFrame bounds a single frame's payload. Nothing legitimate
	// approaches it; the bound keeps a corrupted or hostile length
	// field from asking the decoder for gigabytes.
	MaxFrame = 16 << 20
)

// Request opcodes (client → server).
const (
	// OpQuery carries [tenant][query text]: parse, plan and serve.
	OpQuery byte = 1
	// OpPrepare carries [tenant][query text]: parse once, return a
	// handle for OpExec.
	OpPrepare byte = 2
	// OpExec carries [tenant][8B handle LE]: execute a prepared query,
	// skipping the parser.
	OpExec byte = 3
	// OpTx carries [tenant][1B flags][ops]: validate (and unless the
	// validate-only flag is set, ship) a mutation batch.
	OpTx byte = 4
	// OpCancel carries [8B target request id LE]: cancel that in-flight
	// request's context. Fire-and-forget; no response frame.
	OpCancel byte = 5
)

// Response opcodes (server → client).
const (
	// OpRows answers OpQuery/OpExec: [stats][row count][rows].
	OpRows byte = 16
	// OpPrepared answers OpPrepare: [8B handle LE].
	OpPrepared byte = 17
	// OpTxOK answers OpTx: [applied][validate stats].
	OpTxOK byte = 18
	// OpErr answers any request: [1B code][message][rejections].
	OpErr byte = 19
)

// txValidateOnly is the OpTx flag bit for a dry-run batch.
const txValidateOnly byte = 1

// crcTable is the Castagnoli polynomial (CRC32C), hardware-accelerated
// on amd64/arm64 — the same table the WAL uses.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame is one decoded protocol frame.
type Frame struct {
	Op   byte
	ID   uint64
	Body []byte
}

// DecodeFrame decodes the first frame of b, returning the frame and
// the total byte length consumed. It is a pure function of its input
// and never panics: arbitrary bytes yield either a frame or an error
// (FuzzFrameDecode pins this). io.ErrUnexpectedEOF marks a frame that
// is merely incomplete — more bytes may arrive — as opposed to one
// that is positively corrupt and unrecoverable. The returned Body
// aliases b; callers that retain it past b's lifetime must copy.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < frameOverhead {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	plen := binary.LittleEndian.Uint32(b[0:4])
	crc := binary.LittleEndian.Uint32(b[4:8])
	if plen < payloadOverhead {
		return Frame{}, 0, fmt.Errorf("wire: frame payload length %d below header size", plen)
	}
	if plen > MaxFrame {
		return Frame{}, 0, fmt.Errorf("wire: frame payload length %d exceeds limit", plen)
	}
	end := frameOverhead + int(plen)
	if len(b) < end {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	payload := b[frameOverhead:end]
	if got := crc32.Checksum(payload, crcTable); got != crc {
		return Frame{}, 0, fmt.Errorf("wire: frame checksum mismatch (stored %08x, computed %08x)", crc, got)
	}
	return Frame{
		Op:   payload[0],
		ID:   binary.LittleEndian.Uint64(payload[1:9]),
		Body: payload[payloadOverhead:],
	}, end, nil
}

// AppendFrame appends the encoded frame for (op, id, body) to dst and
// returns the extended slice — allocation-free when dst has capacity,
// which the sync.Pool'd connection buffers arrange on the hot path.
func AppendFrame(dst []byte, op byte, id uint64, body []byte) []byte {
	plen := payloadOverhead + len(body)
	off := len(dst)
	dst = append(dst, make([]byte, frameOverhead+plen)...)
	frame := dst[off:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(plen))
	payload := frame[frameOverhead:]
	payload[0] = op
	binary.LittleEndian.PutUint64(payload[1:9], id)
	copy(payload[payloadOverhead:], body)
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	return dst
}

// beginFrame starts building a frame in place: it resets buf, reserves
// the 8-byte length/CRC header and appends the opcode and request ID.
// Append the body, then call finishFrame — together they encode a frame
// into one pooled buffer with zero copies, where AppendFrame (used by
// the client and tests) copies an already-built body.
func beginFrame(buf []byte, op byte, id uint64) []byte {
	buf = append(buf[:0], 0, 0, 0, 0, 0, 0, 0, 0, op)
	return binary.LittleEndian.AppendUint64(buf, id)
}

// finishFrame fills in the header of a frame started by beginFrame.
func finishFrame(buf []byte) []byte {
	payload := buf[frameOverhead:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	return buf
}

// readFrameInto reads one complete frame from r into buf (grown as
// needed) and decodes it. The two-phase read lets the caller set a
// long idle deadline before the header (a quiet connection is fine)
// and a short one before the payload (a peer that started a frame must
// finish it promptly — the binary listener's slowloris guard). The
// returned frame's Body aliases buf.
func readFrameInto(r io.Reader, buf *[]byte, beforePayload func()) (Frame, error) {
	var hdr [frameOverhead]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	plen := binary.LittleEndian.Uint32(hdr[0:4])
	if plen < payloadOverhead {
		return Frame{}, fmt.Errorf("wire: frame payload length %d below header size", plen)
	}
	if plen > MaxFrame {
		return Frame{}, fmt.Errorf("wire: frame payload length %d exceeds limit", plen)
	}
	if beforePayload != nil {
		beforePayload()
	}
	need := frameOverhead + int(plen)
	if cap(*buf) < need {
		*buf = make([]byte, need)
	}
	b := (*buf)[:need]
	copy(b, hdr[:])
	if _, err := io.ReadFull(r, b[frameOverhead:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	f, _, err := DecodeFrame(b)
	return f, err
}
