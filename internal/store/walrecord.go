package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"interopdb/internal/object"
)

// WAL record bodies. The frame layer (wal.go) guarantees integrity —
// length, checksum, LSN — and a body is the record in binary, built on
// internal/object's value codec: one marker byte (binaryBody), then the
// record's fields in the layouts below, values and attribute maps in
// the codec's canonical form. Logs written before bodies turned binary
// hold JSON bodies, which open with '{'; the decoders tell the two
// apart by the first byte, so a log whose older records are JSON and
// newer ones binary replays record by record. Nothing writes JSON any
// more.
//
//	commit  [marker][str member][uvarint batch][effects]
//	intent  [marker][uvarint n][str member...][uvarint m]
//	        [(str member, effects)...]   members sorted, each listed
//	resolve [marker][uvarint batch][1B outcome 1|2|3]
//
// The effects layout is appendEffects'. Decoding is strict and
// panic-free on arbitrary bytes (the frame CRC makes corruption here
// vanishingly unlikely, but the fuzz target holds the decoders to the
// same standard as the frame parser), and a binary body must be
// consumed exactly.

// binaryBody is the first byte of every binary record body: a byte no
// JSON document starts with.
const binaryBody byte = 0xB1

// CommitRecord is the body of a WALCommit record: one member-store
// transaction that committed. Batch links the commit to the routed
// batch's intent record (the intent's LSN); 0 marks a standalone
// commit. The JSON tags read bodies written before the binary layout.
type CommitRecord struct {
	Member string   `json:"m"`
	Batch  uint64   `json:"b,omitempty"`
	Ops    []Effect `json:"ops"`
}

// IntentRecord is the body of a WALIntent record, written before the
// first member of a routed batch commits: the commit order and every
// member's forward effects. Recovery uses it to finish (or recognise
// as aborted) a batch whose commit phase the crash interrupted.
type IntentRecord struct {
	Members []string            `json:"ms"`
	Effects map[string][]Effect `json:"eff"`
}

// Intent resolution outcomes.
const (
	ResolveCommitted   = "committed"
	ResolveAborted     = "aborted"
	ResolveCompensated = "compensated"
)

// resolveOutcomes numbers the outcomes in a binary resolve body: an
// outcome's code is its index plus one.
var resolveOutcomes = []string{ResolveCommitted, ResolveAborted, ResolveCompensated}

// ResolveRecord is the body of a WALResolve record: the named intent
// (by its LSN) reached a terminal outcome. An intent with no resolve
// record is unresolved — the crash caught it mid-flight — and recovery
// decides its fate from the member commit records.
type ResolveRecord struct {
	Batch   uint64 `json:"b"`
	Outcome string `json:"out"`
}

// EncodeCommitRecord serialises a commit record body.
func EncodeCommitRecord(r CommitRecord) ([]byte, error) {
	b := object.AppendString(append(make([]byte, 0, 256), binaryBody), r.Member)
	b = binary.AppendUvarint(b, r.Batch)
	return appendEffects(b, r.Ops)
}

// EncodeIntentRecord serialises an intent record body.
func EncodeIntentRecord(r IntentRecord) ([]byte, error) {
	b := binary.AppendUvarint([]byte{binaryBody}, uint64(len(r.Members)))
	for _, m := range r.Members {
		b = object.AppendString(b, m)
	}
	names := make([]string, 0, len(r.Effects))
	for m := range r.Effects {
		names = append(names, m)
	}
	slices.Sort(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, m := range names {
		b = object.AppendString(b, m)
		var err error
		if b, err = appendEffects(b, r.Effects[m]); err != nil {
			return nil, fmt.Errorf("member %s: %w", m, err)
		}
	}
	return b, nil
}

// EncodeResolveRecord serialises a resolve record body.
func EncodeResolveRecord(r ResolveRecord) ([]byte, error) {
	code := slices.Index(resolveOutcomes, r.Outcome) + 1
	if code == 0 {
		return nil, fmt.Errorf("wal: resolve record with unknown outcome %q", r.Outcome)
	}
	return append(binary.AppendUvarint([]byte{binaryBody}, r.Batch), byte(code)), nil
}

// decodeBody decodes a record body in either format: a binary body
// through read, which must consume it exactly; anything else as the
// JSON of earlier logs.
func decodeBody(body []byte, v any, read func(*object.Reader)) error {
	if len(body) == 0 || body[0] != binaryBody {
		return json.Unmarshal(body, v)
	}
	r := object.NewReader(body[1:])
	read(r)
	return r.Close()
}

// DecodeCommitRecord decodes and validates a commit record body.
func DecodeCommitRecord(body []byte) (CommitRecord, error) {
	var r CommitRecord
	err := decodeBody(body, &r, func(rd *object.Reader) {
		r.Member = rd.String()
		r.Batch = rd.Uvarint()
		r.Ops = readEffects(rd)
	})
	if err != nil {
		return CommitRecord{}, fmt.Errorf("wal: commit record: %w", err)
	}
	if r.Member == "" {
		return CommitRecord{}, fmt.Errorf("wal: commit record without member")
	}
	for i, op := range r.Ops {
		if err := op.validate(); err != nil {
			return CommitRecord{}, fmt.Errorf("wal: commit record op %d: %w", i, err)
		}
	}
	return r, nil
}

// DecodeIntentRecord decodes and validates an intent record body.
func DecodeIntentRecord(body []byte) (IntentRecord, error) {
	var r IntentRecord
	err := decodeBody(body, &r, func(rd *object.Reader) {
		n := rd.Count()
		for i := 0; i < n && rd.Err() == nil; i++ {
			r.Members = append(r.Members, rd.String())
		}
		n = rd.Count()
		prev := ""
		for i := 0; i < n && rd.Err() == nil; i++ {
			m := rd.String()
			if i > 0 && m <= prev {
				rd.Fail(fmt.Errorf("effects for %s out of order", m))
			}
			if r.Effects == nil {
				r.Effects = map[string][]Effect{}
			}
			r.Effects[m] = readEffects(rd)
			prev = m
		}
	})
	if err != nil {
		return IntentRecord{}, fmt.Errorf("wal: intent record: %w", err)
	}
	seen := map[string]bool{}
	for _, m := range r.Members {
		if m == "" {
			return IntentRecord{}, fmt.Errorf("wal: intent record with empty member name")
		}
		if seen[m] {
			return IntentRecord{}, fmt.Errorf("wal: intent record repeats member %s", m)
		}
		seen[m] = true
	}
	for m, ops := range r.Effects {
		if !seen[m] {
			return IntentRecord{}, fmt.Errorf("wal: intent record has effects for unlisted member %s", m)
		}
		for i, op := range ops {
			if err := op.validate(); err != nil {
				return IntentRecord{}, fmt.Errorf("wal: intent record %s op %d: %w", m, i, err)
			}
		}
	}
	return r, nil
}

// DecodeResolveRecord decodes and validates a resolve record body.
func DecodeResolveRecord(body []byte) (ResolveRecord, error) {
	var r ResolveRecord
	err := decodeBody(body, &r, func(rd *object.Reader) {
		r.Batch = rd.Uvarint()
		if code := int(rd.Byte()); code >= 1 && code <= len(resolveOutcomes) {
			r.Outcome = resolveOutcomes[code-1]
		}
	})
	if err != nil {
		return ResolveRecord{}, fmt.Errorf("wal: resolve record: %w", err)
	}
	if r.Batch == 0 {
		return ResolveRecord{}, fmt.Errorf("wal: resolve record without batch LSN")
	}
	switch r.Outcome {
	case ResolveCommitted, ResolveAborted, ResolveCompensated:
	default:
		return ResolveRecord{}, fmt.Errorf("wal: resolve record with unknown outcome %q", r.Outcome)
	}
	return r, nil
}

// DecodeWALBody decodes a record body according to its frame kind. The
// single entry point the fuzz target drives: arbitrary (kind, body)
// pairs must yield a typed record or an error, never a panic.
func DecodeWALBody(kind byte, body []byte) (any, error) {
	switch kind {
	case WALCommit:
		return DecodeCommitRecord(body)
	case WALIntent:
		return DecodeIntentRecord(body)
	case WALResolve:
		return DecodeResolveRecord(body)
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", kind)
	}
}
