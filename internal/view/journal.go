package view

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"interopdb/internal/store"
)

// The commit journal makes partial commits recoverable. Autonomous
// member databases cannot commit atomically (the paper's premise), so a
// routed batch that spans members can always strand: member A commits,
// member B refuses or vanishes. Before the first member commit, Ship
// records an intent entry here — the retained member transactions and a
// store.IntentRecord: the commit order and a per-member effect list
// precise enough to replay OR undo every local change. With a
// store.DurableSet bound (DESIGN.md §13) the journal is the node's only
// log writer: the same record is the WAL's intent record, each member
// commit (commitLogged) appends a commit record carrying its LSN, and
// every terminal transition appends a resolve record — recovery
// (store/recover.go) settles interrupted batches from exactly these
// records. A single-member batch needs no atomicity record: it writes
// only its commit record, standalone (Batch 0), which replay applies
// on its own. Appends do not fsync; sync is the one durability point,
// and Ship and Reconcile call it before they report any outcome or
// apply a batch to the view, so the engine lock is never released over
// an unsynced record. Each member commit is marked as it lands; a fully
// committed batch resolves its entry. A stranded batch leaves the entry
// pending in one of two modes:
//
//	complete   — a member failed transiently after peers committed;
//	             Reconcile commits the retained transactions (or just
//	             verifies their effects, for commits that applied before
//	             the failure was reported) when the member heals, then
//	             applies the batch to the view.
//	compensate — a member's local manager REJECTED the batch after peers
//	             committed; the batch can never complete, so Reconcile
//	             undoes the committed prefix via inverse effects.
//
// Effect lists double as the verification oracle (store.Applied):
// member commits are atomic, so the presence of any recorded effect on
// the member proves the whole local transaction applied — this is how a
// commit that failed *after* applying (ambiguous outcome) is told apart
// from one that never ran.

type journalMode int

const (
	modeComplete journalMode = iota
	modeCompensate
)

func (m journalMode) String() string {
	if m == modeCompensate {
		return "compensate"
	}
	return "complete"
}

// journalEntry is one routed batch's recovery record. Intent, Wal,
// Backends, Txns and Applies are written once at creation and then only
// read (always under the engine's write lock); the mutable resolution
// state (Mode, Committed, Compensated, LastErr) is guarded by the owning
// journal's mutex so the health report can read it without the engine
// lock.
type journalEntry struct {
	Seq     uint64
	Created time.Time
	Intent  store.IntentRecord
	// Wal is the intent record's LSN when a log is bound (0 otherwise):
	// member commit records carry it, and resolve records name it.
	Wal uint64

	Backends map[string]store.Backend
	Txns     map[string]store.Txn
	Applies  []shippedOp

	Mode        journalMode
	Committed   map[string]bool
	Compensated map[string]bool
	LastErr     string
}

// JournalEntryInfo is one pending entry as rendered in health reports.
type JournalEntryInfo struct {
	Seq       uint64
	Age       time.Duration
	Mode      string
	Committed []string
	Pending   []string
	LastError string
}

// commitJournal holds the pending entries in sequence order.
type commitJournal struct {
	// log is the node's write-ahead log set, nil while durability is
	// off. Atomic because it is bound at boot while Ship may run.
	log atomic.Pointer[store.DurableSet]

	mu      sync.Mutex
	nextSeq uint64
	entries []*journalEntry

	lastReconcile      time.Time
	lastReconcileStats ReconcileStats
	reconciles         int64
}

func newCommitJournal() *commitJournal {
	return &commitJournal{nextSeq: 1}
}

// SetDurability binds (or, with nil, unbinds) the node's write-ahead
// log set. The journal then writes every record of every routed batch:
// intent, member commits and resolve.
func (e *Engine) SetDurability(d *store.DurableSet) {
	e.journal.log.Store(d)
}

// sealed reports why the bound log refuses appends; nil when no log is
// bound or it still accepts them.
func (j *commitJournal) sealed() error {
	if ds := j.log.Load(); ds != nil {
		return ds.WAL().Sealed()
	}
	return nil
}

// begin records intent for a routed batch about to commit. With a log
// bound, the intent record is appended first — unless the batch has a
// single member, whose commit record settles it alone; a failure there
// (typically a sealed log) means the batch cannot be made durable, so
// it must abort before any member commits, and no entry is left behind.
func (j *commitJournal) begin(intent store.IntentRecord, backends map[string]store.Backend, txns map[string]store.Txn, applies []shippedOp) (*journalEntry, error) {
	var lsn uint64
	if ds := j.log.Load(); ds != nil {
		if len(intent.Members) == 1 {
			if err := ds.WAL().Sealed(); err != nil {
				return nil, fmt.Errorf("durability: %w", err)
			}
		} else {
			var err error
			if lsn, err = ds.AppendIntent(intent.Members, intent.Effects); err != nil {
				return nil, fmt.Errorf("durability: append intent: %w", err)
			}
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	ent := &journalEntry{
		Seq:         j.nextSeq,
		Created:     time.Now(),
		Intent:      intent,
		Wal:         lsn,
		Backends:    backends,
		Txns:        txns,
		Applies:     applies,
		Committed:   map[string]bool{},
		Compensated: map[string]bool{},
	}
	j.nextSeq++
	j.entries = append(j.entries, ent)
	return ent, nil
}

// commitLogged is the journal's one commit step and the only writer of
// member commit records. With a log bound it refuses while the log is
// sealed (no member commit runs) and encodes the commit record before
// the member commit, so a change the log cannot hold is never applied.
// It then commits under the retry policy and appends the record from
// effs — the effects the journal already holds. batch is the routed
// batch's intent LSN; compensation commits pass 0. A nil txn marks a
// commit the caller verified as already applied: only its record is
// written.
func (e *Engine) commitLogged(ctx context.Context, batch uint64, b store.Backend, txn store.Txn, effs []store.Effect) error {
	ds := e.journal.log.Load()
	var body []byte
	if ds != nil {
		if err := ds.WAL().Sealed(); err != nil {
			return err
		}
		if len(effs) > 0 {
			var err error
			if body, err = store.EncodeCommitRecord(store.CommitRecord{Member: b.Name(), Batch: batch, Ops: effs}); err != nil {
				return fmt.Errorf("wal: encode commit record: %w", err)
			}
		}
	}
	if txn != nil {
		if err := e.commitWithRetry(ctx, b, txn, effs); err != nil {
			return err
		}
	}
	if body == nil {
		return nil
	}
	return ds.AppendCommit(body)
}

// sync makes every record appended so far durable: the one fsync a
// batch pays, taken before its outcome is reported. A no-op without a
// log or when nothing was appended since the last sync.
func (j *commitJournal) sync() error {
	if ds := j.log.Load(); ds != nil {
		return ds.WAL().Sync()
	}
	return nil
}

// resolve ends an entry with a terminal outcome (committed or aborted):
// the resolve record is appended and the entry dropped.
func (j *commitJournal) resolve(ent *journalEntry, outcome string) {
	j.logResolve(ent, outcome)
	j.remove(ent)
}

// compensate flips an entry to compensate mode after a member's local
// manager rejected the batch. The resolve record lands here, BEFORE any
// compensating commit, so a crash mid-undo recovers into "finish the
// compensation", never "complete the batch the member rejected".
func (j *commitJournal) compensate(ent *journalEntry, err error) {
	j.mu.Lock()
	ent.Mode = modeCompensate
	ent.LastErr = err.Error()
	j.mu.Unlock()
	j.logResolve(ent, store.ResolveCompensated)
}

// logResolve appends a resolve record; a single-member batch has no
// intent to resolve. Best-effort by design: an unresolved intent is
// settled idempotently by recovery from the member commit records, so
// a failed append (a sealed log during shutdown-by-fault) loses
// nothing.
func (j *commitJournal) logResolve(ent *journalEntry, outcome string) {
	if ds := j.log.Load(); ds != nil && ent.Wal != 0 {
		_ = ds.AppendResolve(ent.Wal, outcome)
	}
}

// remove drops a resolved (or fully compensated) entry.
func (j *commitJournal) remove(ent *journalEntry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, e := range j.entries {
		if e == ent {
			j.entries = append(j.entries[:i], j.entries[i+1:]...)
			return
		}
	}
}

func (j *commitJournal) markCommitted(ent *journalEntry, member string) {
	j.mu.Lock()
	ent.Committed[member] = true
	j.mu.Unlock()
}

func (j *commitJournal) markCompensated(ent *journalEntry, member string) {
	j.mu.Lock()
	ent.Compensated[member] = true
	j.mu.Unlock()
}

func (j *commitJournal) setErr(ent *journalEntry, err error) {
	j.mu.Lock()
	if err != nil {
		ent.LastErr = err.Error()
	}
	j.mu.Unlock()
}

func (ent *journalEntry) lockedCommitted() []string {
	var out []string
	for _, m := range ent.Intent.Members {
		if ent.Committed[m] {
			out = append(out, m)
		}
	}
	return out
}

// lockedPending lists the members the entry still has to visit: the
// uncommitted ones in complete mode, the committed-but-not-compensated
// ones in compensate mode.
func (ent *journalEntry) lockedPending() []string {
	var out []string
	for _, m := range ent.Intent.Members {
		if ent.Mode == modeComplete && !ent.Committed[m] {
			out = append(out, m)
		}
		if ent.Mode == modeCompensate && ent.Committed[m] && !ent.Compensated[m] {
			out = append(out, m)
		}
	}
	return out
}

func (j *commitJournal) modeOf(ent *journalEntry) journalMode {
	j.mu.Lock()
	defer j.mu.Unlock()
	return ent.Mode
}

func (j *commitJournal) isCommitted(ent *journalEntry, member string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return ent.Committed[member]
}

func (j *commitJournal) lastErrOf(ent *journalEntry) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return ent.LastErr
}

// committedPendingCompensation lists the members whose commit still has
// to be undone, in commit order.
func (j *commitJournal) committedPendingCompensation(ent *journalEntry) []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []string
	for _, m := range ent.Intent.Members {
		if ent.Committed[m] && !ent.Compensated[m] {
			out = append(out, m)
		}
	}
	return out
}

// depth is the number of pending entries.
func (j *commitJournal) depth() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// pendingFor counts the pending entries that block new writes to the
// member: while any batch awaits the member's commit (or roll-back),
// admitting a fresh write would reorder it ahead of the stranded one.
func (j *commitJournal) pendingFor(member string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, ent := range j.entries {
		for _, m := range ent.lockedPending() {
			if m == member {
				n++
				break
			}
		}
	}
	return n
}

// snapshotEntries returns the pending entries (for Reconcile, which
// runs under the engine write lock and may mutate them through journal
// methods).
func (j *commitJournal) snapshotEntries() []*journalEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]*journalEntry{}, j.entries...)
}

// info renders the pending entries for the health report.
func (j *commitJournal) info() []JournalEntryInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	now := time.Now()
	out := make([]JournalEntryInfo, 0, len(j.entries))
	for _, ent := range j.entries {
		out = append(out, JournalEntryInfo{
			Seq:       ent.Seq,
			Age:       now.Sub(ent.Created),
			Mode:      ent.Mode.String(),
			Committed: ent.lockedCommitted(),
			Pending:   ent.lockedPending(),
			LastError: ent.LastErr,
		})
	}
	return out
}

// noteReconcile records the outcome of a reconcile pass.
func (j *commitJournal) noteReconcile(rs ReconcileStats) {
	j.mu.Lock()
	j.lastReconcile = time.Now()
	j.lastReconcileStats = rs
	j.reconciles++
	j.mu.Unlock()
}

func (j *commitJournal) lastReconcileInfo() (time.Time, ReconcileStats, int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastReconcile, j.lastReconcileStats, j.reconciles
}
