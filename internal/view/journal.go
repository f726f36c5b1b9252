package view

import (
	"sync"
	"time"

	"interopdb/internal/object"
	"interopdb/internal/store"
)

// The commit journal makes partial commits recoverable. Autonomous
// member databases cannot commit atomically (the paper's premise), so a
// routed batch that spans members can always strand: member A commits,
// member B refuses or vanishes. Before the first member commit,
// Ship records an intent entry here — the commit order,
// the retained member transactions, and a per-member effect list
// precise enough to replay OR undo every local change. Each member
// commit is marked as it lands; a fully committed batch removes its
// entry. A stranded batch leaves the entry pending in one of two modes:
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
// Effect lists double as the verification oracle: member commits are
// atomic, so the presence of any recorded effect on the member proves
// the whole local transaction applied — this is how a commit that
// failed *after* applying (ambiguous outcome) is told apart from one
// that never ran.

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

// memberEffect is one member-local change of a routed batch, recorded
// at staging time: enough to verify it applied, and enough to invert it.
type memberEffect struct {
	Kind  MutationKind
	Class string
	OID   object.OID
	// Attrs: the inserted object's attributes (insert) or the assigned
	// values (update); nil for delete.
	Attrs map[string]object.Value
	// Prev: the prior values of assigned attributes (update; attributes
	// that were previously absent are omitted and cannot be restored) or
	// the deleted object's full attributes (delete); nil for insert.
	Prev map[string]object.Value
}

// inverseEffects builds the compensation script for one member: the
// recorded effects inverted, in reverse order.
func inverseEffects(effs []memberEffect) []memberEffect {
	out := make([]memberEffect, 0, len(effs))
	for i := len(effs) - 1; i >= 0; i-- {
		ef := effs[i]
		switch ef.Kind {
		case MutInsert:
			out = append(out, memberEffect{Kind: MutDelete, Class: ef.Class, OID: ef.OID, Prev: ef.Attrs})
		case MutUpdate:
			out = append(out, memberEffect{Kind: MutUpdate, Class: ef.Class, OID: ef.OID, Attrs: ef.Prev, Prev: ef.Attrs})
		case MutDelete:
			out = append(out, memberEffect{Kind: MutInsert, Class: ef.Class, OID: ef.OID, Attrs: ef.Prev})
		}
	}
	return out
}

// stageEffects stages an effect list on a fresh member transaction
// (the replay/compensation path; the original routed commit retains its
// staged transaction instead).
func stageEffects(tx store.Txn, effs []memberEffect) error {
	for _, ef := range effs {
		var err error
		switch ef.Kind {
		case MutInsert:
			err = tx.InsertAt(ef.OID, ef.Class, ef.Attrs)
		case MutUpdate:
			if len(ef.Attrs) > 0 {
				err = tx.Update(ef.OID, ef.Attrs)
			}
		case MutDelete:
			err = tx.Delete(ef.OID)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// effectsApplied reports whether the member holds the recorded effects.
// Member commits are all-or-none, so any effect present means the local
// transaction applied; the full list is still checked because it is
// cheap and catches recording bugs. An empty list proves nothing and
// reports false.
func effectsApplied(b store.Backend, effs []memberEffect) bool {
	if len(effs) == 0 {
		return false
	}
	for _, ef := range effs {
		switch ef.Kind {
		case MutInsert:
			if _, ok := b.Get(ef.OID); !ok {
				return false
			}
		case MutUpdate:
			o, ok := b.Get(ef.OID)
			if !ok {
				return false
			}
			for k, v := range ef.Attrs {
				got, ok := o.Get(k)
				if !ok || !got.Equal(v) {
					return false
				}
			}
		case MutDelete:
			if _, ok := b.Get(ef.OID); ok {
				return false
			}
		}
	}
	return true
}

// journalEntry is one routed batch's recovery record. Order, Backends,
// Txns, Effects and Applies are written once at creation and then only
// read (always under the engine's write lock); the mutable resolution
// state (Mode, Committed, Compensated, FailedMember, LastErr) is
// guarded by the owning journal's mutex so the health report can read
// it without the engine lock.
type journalEntry struct {
	Seq     uint64
	Created time.Time
	Order   []string

	Backends map[string]store.Backend
	Txns     map[string]store.Txn
	Effects  map[string][]memberEffect
	Applies  []shippedOp

	// Wal is the batch's intent-record LSN when durability is enabled
	// (0 otherwise): member commit records carry it, and the terminal
	// resolve record names it. Written once right after begin, under the
	// engine write lock.
	Wal uint64

	Mode         journalMode
	Committed    map[string]bool
	Compensated  map[string]bool
	FailedMember string
	LastErr      string
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

// begin records intent for a routed batch about to commit.
func (j *commitJournal) begin(order []string, backends map[string]store.Backend, txns map[string]store.Txn, effects map[string][]memberEffect, applies []shippedOp) *journalEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	ent := &journalEntry{
		Seq:         j.nextSeq,
		Created:     time.Now(),
		Order:       order,
		Backends:    backends,
		Txns:        txns,
		Effects:     effects,
		Applies:     applies,
		Committed:   map[string]bool{},
		Compensated: map[string]bool{},
	}
	j.nextSeq++
	j.entries = append(j.entries, ent)
	return ent
}

// remove drops a resolved (or cleanly aborted) entry.
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

func (j *commitJournal) setMode(ent *journalEntry, mode journalMode, failed string, err error) {
	j.mu.Lock()
	ent.Mode = mode
	ent.FailedMember = failed
	if err != nil {
		ent.LastErr = err.Error()
	}
	j.mu.Unlock()
}

func (j *commitJournal) setErr(ent *journalEntry, err error) {
	j.mu.Lock()
	if err != nil {
		ent.LastErr = err.Error()
	}
	j.mu.Unlock()
}

// committedMembers lists the members marked committed, in commit order.
func (j *commitJournal) committedMembers(ent *journalEntry) []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return ent.lockedCommitted()
}

func (ent *journalEntry) lockedCommitted() []string {
	var out []string
	for _, m := range ent.Order {
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
	for _, m := range ent.Order {
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
	for _, m := range ent.Order {
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
