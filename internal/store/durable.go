package store

// DurableSet owns the WAL shared by all members of one federation node
// and appends the three record kinds the engine's commit journal writes
// for a routed batch (DESIGN.md §13): the intent before the first member
// commit, one commit record per member commit, and the resolve record at
// the batch's terminal transition. A single-member batch writes only its
// commit record, standalone. The journal is the only writer, and it
// calls WAL.Sync once per batch, before the batch's outcome is reported:
// the appends below do not fsync.
//
// Ordering: a member commit runs FIRST, then its commit record is
// appended. A deferred-validation commit is also the validation —
// logging before it would record batches the member's manager then
// rejects. The window this opens (member commit applied, record not
// durable) is handled by sealing: a failed append or sync seals the log
// and cuts it back to the last synced record, the caller never sees an
// ack, and the node must restart — recovery rebuilds exactly the synced
// prefix, which holds every reported outcome. The member stores are
// in-process and rebuilt from that prefix at boot, so a member commit no
// fsync covers is lost together with its record.
type DurableSet struct {
	wal *WAL
}

// NewDurableSet wraps a WAL for a federation's member set.
func NewDurableSet(wal *WAL) *DurableSet { return &DurableSet{wal: wal} }

// WAL returns the underlying log.
func (d *DurableSet) WAL() *WAL { return d.wal }

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

// AppendCommit logs one member commit that has just succeeded. body is
// the EncodeCommitRecord encoding, made BEFORE the member commit so that
// a change the log cannot hold is never applied. A failure seals the log
// and matches ErrUnavailable: the member holds a change the log does
// not, so the batch must not be acknowledged.
func (d *DurableSet) AppendCommit(body []byte) error {
	_, err := d.wal.Append(WALCommit, body)
	return err
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

// Nothing in this module implements or asserts the two interfaces
// below: the commit journal writes every record itself. They stay
// declared only because the benchmark harness, a module of its own,
// names them.
type BatchTagger interface {
	TagBatch(lsn uint64)
}

// Kept for the benchmark harness; see above.
type AppliedLogger interface {
	LogApplied() error
}
