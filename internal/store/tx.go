package store

import (
	"fmt"

	"interopdb/internal/object"
)

// Tx is a deferred-validation transaction: mutations are staged and the
// whole batch is constraint-checked atomically at Commit. This is the
// "local transaction manager" whose rejections the paper's global
// transaction validation wants to predict (§1).
type Tx struct {
	s    *Store
	done bool
	ops  []txOp
}

type txOpKind int

const (
	opInsert txOpKind = iota
	opUpdate
	opDelete
)

type txOp struct {
	kind  txOpKind
	class string
	oid   object.OID
	attrs map[string]object.Value
}

// Begin starts a transaction. The return type is the Txn interface (not
// *Tx) so *Store satisfies Backend; in-package callers needing the
// concrete type can assert.
func (s *Store) Begin() Txn { return &Tx{s: s} }

// Insert stages an insert and returns the OID the object will have if the
// transaction commits. The OID is reserved on the store at staging time
// (not predicted from the current counter), so it stays valid no matter
// what the store allocates between staging and commit: interleaved direct
// inserts, other transactions staging or committing, and any mix of
// deletes and inserts inside this batch. A reservation is never reused —
// a rolled-back or failed transaction leaves a hole in the OID sequence.
func (t *Tx) Insert(class string, attrs map[string]object.Value) (object.OID, error) {
	if t.done {
		return 0, fmt.Errorf("transaction already finished")
	}
	if err := t.s.validateAttrs(class, attrs); err != nil {
		return 0, err
	}
	cp := make(map[string]object.Value, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	oid := t.s.nextOID
	t.s.nextOID++
	t.ops = append(t.ops, txOp{kind: opInsert, class: class, oid: oid, attrs: cp})
	return oid, nil
}

// InsertAt stages an insert under a caller-supplied OID (see
// Txn.InsertAt): compensation re-creates deleted objects under their
// original identity. The allocation counter is bumped past the OID so
// later allocations cannot collide with it.
func (t *Tx) InsertAt(oid object.OID, class string, attrs map[string]object.Value) error {
	if t.done {
		return fmt.Errorf("transaction already finished")
	}
	if err := t.s.validateAttrs(class, attrs); err != nil {
		return err
	}
	if _, taken := t.s.objs[oid]; taken {
		return fmt.Errorf("store %s: OID %s already occupied", t.s.Name(), oid)
	}
	cp := make(map[string]object.Value, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	if oid >= t.s.nextOID {
		t.s.nextOID = oid + 1
	}
	t.ops = append(t.ops, txOp{kind: opInsert, class: class, oid: oid, attrs: cp})
	return nil
}

// Update stages a partial update.
func (t *Tx) Update(oid object.OID, attrs map[string]object.Value) error {
	if t.done {
		return fmt.Errorf("transaction already finished")
	}
	class, ok := t.classOf(oid)
	if !ok {
		return fmt.Errorf("store %s: no object %s", t.s.Name(), oid)
	}
	if err := t.s.validateAttrs(class, attrs); err != nil {
		return err
	}
	cp := make(map[string]object.Value, len(attrs))
	for k, v := range attrs {
		cp[k] = v
	}
	t.ops = append(t.ops, txOp{kind: opUpdate, class: class, oid: oid, attrs: cp})
	return nil
}

// Delete stages a deletion.
func (t *Tx) Delete(oid object.OID) error {
	if t.done {
		return fmt.Errorf("transaction already finished")
	}
	class, ok := t.classOf(oid)
	if !ok {
		return fmt.Errorf("store %s: no object %s", t.s.Name(), oid)
	}
	t.ops = append(t.ops, txOp{kind: opDelete, class: class, oid: oid})
	return nil
}

// classOf resolves the class of an object visible to the transaction
// (staged inserts included).
func (t *Tx) classOf(oid object.OID) (string, bool) {
	for i := len(t.ops) - 1; i >= 0; i-- {
		op := t.ops[i]
		if op.oid == oid {
			if op.kind == opDelete {
				return "", false
			}
			return op.class, true
		}
	}
	if o, ok := t.s.objs[oid]; ok {
		return o.class, true
	}
	return "", false
}

// Rollback discards the staged operations.
func (t *Tx) Rollback() {
	t.done = true
	t.ops = nil
}

// Commit applies the staged operations with constraint enforcement
// deferred to the end: the final state is checked against every
// constraint the batch can have falsified (check.go) and, if any fails,
// the store is restored untouched — every object at its place in its
// extent — and the violations are returned.
func (t *Tx) Commit() error {
	if t.done {
		return fmt.Errorf("transaction already finished")
	}
	t.done = true
	b := &batch{s: t.s}
	for _, op := range t.ops {
		var err error
		switch op.kind {
		case opInsert:
			// A rolled-back insert does not release its reservation: the
			// OID stays burned so no later allocation can collide with a
			// reference the caller may have kept.
			err = b.insert(op.oid, op.class, op.attrs)
		case opUpdate:
			err = b.update(op.oid, op.attrs)
		case opDelete:
			err = b.delete(op.oid)
		}
		if err != nil {
			b.rollback()
			return err
		}
	}
	return b.commit()
}
