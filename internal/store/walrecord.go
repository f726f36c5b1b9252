package store

import (
	"encoding/json"
	"fmt"
)

// WAL record bodies. The frame layer (wal.go) guarantees integrity —
// length, checksum, LSN — so bodies can use JSON with the kind-tagged
// value codec from internal/object (effect.go) and stay debuggable with
// nothing but `jq`. Decoding is strict and panic-free on arbitrary
// bytes (the frame CRC makes corruption here vanishingly unlikely, but
// the fuzz target holds the decoders to the same standard as the frame
// parser).

// CommitRecord is the body of a WALCommit record: one member-store
// transaction that committed. Batch links the commit to the routed
// batch's intent record (the intent's LSN); 0 marks a standalone
// commit.
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

// ResolveRecord is the body of a WALResolve record: the named intent
// (by its LSN) reached a terminal outcome. An intent with no resolve
// record is unresolved — the crash caught it mid-flight — and recovery
// decides its fate from the member commit records.
type ResolveRecord struct {
	Batch   uint64 `json:"b"`
	Outcome string `json:"out"`
}

// EncodeCommitRecord serialises a commit record body.
func EncodeCommitRecord(r CommitRecord) ([]byte, error) { return json.Marshal(r) }

// EncodeIntentRecord serialises an intent record body.
func EncodeIntentRecord(r IntentRecord) ([]byte, error) { return json.Marshal(r) }

// EncodeResolveRecord serialises a resolve record body.
func EncodeResolveRecord(r ResolveRecord) ([]byte, error) { return json.Marshal(r) }

// DecodeCommitRecord decodes and validates a commit record body.
func DecodeCommitRecord(body []byte) (CommitRecord, error) {
	var r CommitRecord
	if err := json.Unmarshal(body, &r); err != nil {
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
	if err := json.Unmarshal(body, &r); err != nil {
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
	if err := json.Unmarshal(body, &r); err != nil {
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
