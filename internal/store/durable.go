package store

import (
	"fmt"

	"interopdb/internal/object"
)

// Durable is the Backend wrapper that gives a member store a
// write-ahead log (the same Registry.Swap interposition point the
// chaos wrapper uses). Every transaction that commits through it is
// appended to the shared WAL — and fsynced, under SyncAlways — before
// Commit returns, so by the time the shipping layer acknowledges a
// batch, every member-local change is durable.
//
// Ordering: the inner commit runs FIRST, then the WAL append. A
// deferred-validation commit is also the validation — logging before
// it would record batches the member's manager then rejects. The
// window this opens (inner commit applied, WAL append failed) is
// handled by sealing: the append failure seals the log, Commit returns
// an ErrUnavailable-matching error, the caller never sees an ack, and
// the node must restart — recovery rebuilds exactly the durable
// prefix, which matches exactly the acknowledged batches.

// DurableSet owns the WAL shared by all members of one federation
// node and stamps records with the member names. It also carries the
// routed-shipping intent/resolve records the view layer writes around
// cross-member commit phases.
type DurableSet struct {
	wal *WAL
}

// NewDurableSet wraps a WAL for a federation's member set.
func NewDurableSet(wal *WAL) *DurableSet { return &DurableSet{wal: wal} }

// WAL returns the underlying log.
func (d *DurableSet) WAL() *WAL { return d.wal }

// Wrap interposes durability on a member backend.
func (d *DurableSet) Wrap(b Backend) Backend { return &Durable{inner: b, set: d} }

// AppendIntent logs a routed batch's per-member effects before the
// first member commit and returns the record's LSN, which becomes the
// batch's durable identity (commit records reference it).
func (d *DurableSet) AppendIntent(members []string, effects map[string][]Effect) (uint64, error) {
	body, err := EncodeIntentRecord(IntentRecord{Members: members, Effects: effects})
	if err != nil {
		return 0, err
	}
	return d.wal.Append(WALIntent, body)
}

// AppendResolve logs a batch's terminal outcome. Failures are returned
// but are safe to ignore: an unresolved intent is re-settled by
// recovery from the member commit records, idempotently.
func (d *DurableSet) AppendResolve(batch uint64, outcome string) error {
	body, err := EncodeResolveRecord(ResolveRecord{Batch: batch, Outcome: outcome})
	if err != nil {
		return err
	}
	_, err = d.wal.Append(WALResolve, body)
	return err
}

// BatchTagger is implemented by durable transactions: the routed
// shipping path tags each member transaction with its batch's intent
// LSN so the commit records correlate.
type BatchTagger interface {
	TagBatch(lsn uint64)
}

// AppliedLogger is implemented by durable transactions. When the fault
// machinery resolves an ambiguous commit as applied (the member's
// effects landed before the failure was reported), the change is in
// the member but not yet in the log — LogApplied writes the commit
// record the ordinary Commit path would have written.
type AppliedLogger interface {
	LogApplied() error
}

// Durable wraps one member backend. Reads delegate; Begin returns a
// logging transaction.
type Durable struct {
	inner Backend
	set   *DurableSet
}

// Unwrap returns the wrapped backend (symmetry with the chaos wrapper;
// tests use it to reach the concrete store).
func (d *Durable) Unwrap() Backend { return d.inner }

// Name implements Backend.
func (d *Durable) Name() string { return d.inner.Name() }

// Count implements Backend.
func (d *Durable) Count() int { return d.inner.Count() }

// Get implements Backend.
func (d *Durable) Get(oid object.OID) (*Obj, bool) { return d.inner.Get(oid) }

// Extent implements Backend.
func (d *Durable) Extent(class string) []*Obj { return d.inner.Extent(class) }

// Ping implements Backend. A sealed log makes the member unavailable
// for writes — reporting it here lets the breaker quarantine the
// member instead of failing every batch at commit time.
func (d *Durable) Ping() error {
	if err := d.set.wal.Sealed(); err != nil {
		return err
	}
	return d.inner.Ping()
}

// Begin implements Backend.
func (d *Durable) Begin() Txn {
	return &durableTxn{d: d, inner: d.inner.Begin()}
}

// durableTxn stages through the inner transaction while recording each
// change's Effect (prior values captured from committed state) to log
// at commit.
type durableTxn struct {
	d     *Durable
	inner Txn
	ops   []Effect
	batch uint64
	done  bool
}

// TagBatch implements BatchTagger.
func (t *durableTxn) TagBatch(lsn uint64) { t.batch = lsn }

// Insert implements Txn.
func (t *durableTxn) Insert(class string, attrs map[string]object.Value) (object.OID, error) {
	oid, err := t.inner.Insert(class, attrs)
	if err == nil {
		t.note(Effect{Kind: OpInsert, Class: class, OID: oid, Attrs: attrs})
	}
	return oid, err
}

// InsertAt implements Txn.
func (t *durableTxn) InsertAt(oid object.OID, class string, attrs map[string]object.Value) error {
	err := t.inner.InsertAt(oid, class, attrs)
	if err == nil {
		t.note(Effect{Kind: OpInsert, Class: class, OID: oid, Attrs: attrs})
	}
	return err
}

// Update implements Txn.
func (t *durableTxn) Update(oid object.OID, attrs map[string]object.Value) error {
	err := t.inner.Update(oid, attrs)
	if err == nil {
		t.note(Effect{Kind: OpUpdate, OID: oid, Attrs: attrs})
	}
	return err
}

// Delete implements Txn.
func (t *durableTxn) Delete(oid object.OID) error {
	err := t.inner.Delete(oid)
	if err == nil {
		t.note(Effect{Kind: OpDelete, OID: oid})
	}
	return err
}

// note records a change the inner transaction just staged. Staging
// leaves committed state untouched, so Capture still reads the values
// the change will overwrite.
func (t *durableTxn) note(e Effect) { t.ops = append(t.ops, Capture(t.d.inner, e)) }

// encode renders the transaction's commit record; nil when it staged
// nothing.
func (t *durableTxn) encode() ([]byte, error) {
	if len(t.ops) == 0 {
		return nil, nil
	}
	body, err := EncodeCommitRecord(CommitRecord{Member: t.d.inner.Name(), Batch: t.batch, Ops: t.ops})
	if err != nil {
		return nil, fmt.Errorf("wal: encode commit record: %w", err)
	}
	return body, nil
}

// Commit implements Txn: inner commit (validation + application),
// then the durable log append. The record is encoded first, so a change
// the log cannot hold is never applied. A WAL failure after a
// successful inner commit returns ErrWALSealed — transient to the
// caller's fault machinery, terminal for this process's ability to
// acknowledge writes.
func (t *durableTxn) Commit() error {
	if t.done {
		// Replaying Commit on a finished transaction must stay
		// delegate-shaped: the inner transaction answers (typically
		// "already committed"), and no duplicate record is logged.
		return t.inner.Commit()
	}
	body, err := t.encode()
	if err != nil {
		return err
	}
	if err := t.inner.Commit(); err != nil {
		return err
	}
	// done flips only once the record is durably appended: a failure
	// here leaves it false, so the fault machinery's LogApplied knows
	// the member's applied change still has no record and cannot let
	// the batch be acknowledged (it will re-attempt the append and
	// surface the sealed log).
	if body != nil {
		if _, err := t.d.set.wal.Append(WALCommit, body); err != nil {
			return err
		}
	}
	t.done = true
	return nil
}

// LogApplied implements AppliedLogger: force the commit record for a
// transaction whose inner commit applied but reported a failure.
func (t *durableTxn) LogApplied() error {
	if t.done {
		return nil
	}
	t.done = true
	body, err := t.encode()
	if err != nil || body == nil {
		return err
	}
	_, err = t.d.set.wal.Append(WALCommit, body)
	return err
}

// Rollback implements Txn.
func (t *durableTxn) Rollback() {
	t.ops = nil
	t.inner.Rollback()
}

// Compile-time checks.
var (
	_ Backend       = (*Durable)(nil)
	_ Txn           = (*durableTxn)(nil)
	_ BatchTagger   = (*durableTxn)(nil)
	_ AppliedLogger = (*durableTxn)(nil)
)
