package store

import (
	"encoding/json"
	"fmt"

	"interopdb/internal/object"
)

// The effect record (DESIGN.md §11, §13). Autonomous members cannot
// commit a multi-member batch atomically, so every member-local change
// is recorded as an Effect — the forward change plus the prior state it
// overwrites — and one record serves every party: the routed shipping
// path journals a batch's effects before its first member commit (and
// logs them as the WAL intent record), the durable wrapper logs each
// committed transaction's effects, compensation inverts and stages
// them, and the fault machinery and recovery verify and replay them.

// OpKind enumerates the kinds of change an Effect records. The values
// are part of the on-disk format; never renumber.
type OpKind int

const (
	OpInsert OpKind = 1
	OpUpdate OpKind = 2
	OpDelete OpKind = 3
)

// Effect is one member-local change.
type Effect struct {
	Kind OpKind
	// Class is the inserted or deleted object's class ("" for updates).
	Class string
	OID   object.OID
	// Attrs holds the inserted object's attributes (insert) or the
	// assigned values (update); nil for delete.
	Attrs map[string]object.Value
	// Prev holds the prior values of the assigned attributes that existed
	// (update) or the deleted object's attributes (delete); nil for
	// insert.
	Prev map[string]object.Value
}

// effectJSON is an Effect's on-disk form: values in object's
// kind-tagged JSON codec.
type effectJSON struct {
	Kind  OpKind                     `json:"k"`
	Class string                     `json:"c,omitempty"`
	OID   uint64                     `json:"o"`
	Attrs map[string]json.RawMessage `json:"a,omitempty"`
	Prev  map[string]json.RawMessage `json:"p,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (e Effect) MarshalJSON() ([]byte, error) {
	a, err := object.MarshalAttrs(e.Attrs)
	if err != nil {
		return nil, err
	}
	p, err := object.MarshalAttrs(e.Prev)
	if err != nil {
		return nil, err
	}
	return json.Marshal(effectJSON{Kind: e.Kind, Class: e.Class, OID: uint64(e.OID), Attrs: a, Prev: p})
}

// UnmarshalJSON implements json.Unmarshaler. Values decode strictly;
// the record's shape is checked by validate.
func (e *Effect) UnmarshalJSON(b []byte) error {
	var j effectJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	a, err := object.UnmarshalAttrs(j.Attrs)
	if err != nil {
		return err
	}
	p, err := object.UnmarshalAttrs(j.Prev)
	if err != nil {
		return err
	}
	*e = Effect{Kind: j.Kind, Class: j.Class, OID: object.OID(j.OID), Attrs: a, Prev: p}
	return nil
}

// validate rejects effects that could not have been recorded — the
// decoder's share of the "arbitrary bytes never panic, never
// half-apply" contract.
func (e Effect) validate() error {
	switch e.Kind {
	case OpInsert:
		if e.Class == "" {
			return fmt.Errorf("wal: insert op without class")
		}
	case OpUpdate:
		if len(e.Attrs) == 0 {
			return fmt.Errorf("wal: update op without assignments")
		}
	case OpDelete:
	default:
		return fmt.Errorf("wal: unknown op kind %d", int(e.Kind))
	}
	if e.OID == 0 {
		return fmt.Errorf("wal: op without OID")
	}
	return nil
}

// Capture completes a change staged on a transaction of b with the
// prior state it overwrites, read from b's committed state — which
// staging leaves untouched until commit: the current values of an
// update's assigned attributes (one that is absent has nothing to
// restore and is left out) or the class and attributes of the object a
// delete removes. An insert overwrites nothing. Attrs is copied, so the
// caller may reuse its map.
func Capture(b Backend, e Effect) Effect {
	e.Attrs = copyValues(e.Attrs)
	switch e.Kind {
	case OpUpdate:
		if o, ok := b.Get(e.OID); ok {
			e.Prev = make(map[string]object.Value, len(e.Attrs))
			for k := range e.Attrs {
				if v, had := o.Get(k); had {
					e.Prev[k] = v
				}
			}
		}
	case OpDelete:
		if o, ok := b.Get(e.OID); ok {
			e.Class, e.Prev = o.Class(), o.Attrs()
		}
	}
	return e
}

func copyValues(m map[string]object.Value) map[string]object.Value {
	if m == nil {
		return nil
	}
	out := make(map[string]object.Value, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Inverse builds the compensation script for a member's effects: each
// inverted, in reverse order. An update none of whose assigned
// attributes existed before has no prior values — restoring values
// cannot un-declare attributes — so it inverts to nothing and is
// dropped; every effect Inverse returns is one a log record may carry.
func Inverse(effs []Effect) []Effect {
	out := make([]Effect, 0, len(effs))
	for i := len(effs) - 1; i >= 0; i-- {
		e := effs[i]
		switch e.Kind {
		case OpInsert:
			out = append(out, Effect{Kind: OpDelete, Class: e.Class, OID: e.OID, Prev: e.Attrs})
		case OpUpdate:
			if len(e.Prev) > 0 {
				out = append(out, Effect{Kind: OpUpdate, OID: e.OID, Attrs: e.Prev, Prev: e.Attrs})
			}
		case OpDelete:
			out = append(out, Effect{Kind: OpInsert, Class: e.Class, OID: e.OID, Attrs: e.Prev})
		}
	}
	return out
}

// Applied reports whether b holds the recorded effects — the oracle
// that tells a commit which applied before its failure was reported
// from one that never ran. Member commits are all-or-none, so any effect
// present means the transaction applied; the whole list is still
// checked because it is cheap and catches recording bugs. An empty list
// proves nothing and reports false.
func Applied(b Backend, effs []Effect) bool {
	if len(effs) == 0 {
		return false
	}
	for _, e := range effs {
		o, present := b.Get(e.OID)
		if present == (e.Kind == OpDelete) {
			return false
		}
		if e.Kind != OpUpdate {
			continue
		}
		for k, v := range e.Attrs {
			if got, ok := o.Get(k); !ok || !got.Equal(v) {
				return false
			}
		}
	}
	return true
}

// Stage stages effects on a member transaction in order. An insert is
// staged at its recorded OID: compensation re-creates a deleted object
// under its original identity.
func Stage(tx Txn, effs ...Effect) error {
	for _, e := range effs {
		var err error
		switch e.Kind {
		case OpInsert:
			err = tx.InsertAt(e.OID, e.Class, e.Attrs)
		case OpUpdate:
			err = tx.Update(e.OID, e.Attrs)
		case OpDelete:
			err = tx.Delete(e.OID)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
