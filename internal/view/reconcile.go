package view

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"interopdb/internal/store"
)

// RetryPolicy bounds transient member-commit retries on the routed
// shipping path: capped exponential backoff under a per-member elapsed
// budget. The zero value takes the defaults below.
type RetryPolicy struct {
	// MaxAttempts is the commit attempt limit per member (first attempt
	// included). Default 4.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry. Default 5ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Default 100ms.
	MaxDelay time.Duration
	// MemberTimeout is the elapsed budget for one member's commit,
	// retries included. Default 1s.
	MemberTimeout time.Duration
	// Sleep is injectable for tests; nil means time.Sleep.
	Sleep func(time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	if p.MemberTimeout <= 0 {
		p.MemberTimeout = time.Second
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// faultCounters tallies fault-handling events (FaultStats snapshots it).
type faultCounters struct {
	transientFaults   atomic.Int64
	retries           atomic.Int64
	ambiguousResolved atomic.Int64
	outages           atomic.Int64
	quarantineRejects atomic.Int64
	partialCommits    atomic.Int64
	compensatedInline atomic.Int64
	reconCompleted    atomic.Int64
	reconCompensated  atomic.Int64
}

// FaultStats is a snapshot of the engine's fault-handling counters.
type FaultStats struct {
	// TransientFaults counts member-commit attempts that failed with a
	// transient (retryable) error.
	TransientFaults int64
	// Retries counts commit re-attempts after a transient failure.
	Retries int64
	// AmbiguousResolved counts commits whose failure arrived after the
	// effects had applied, resolved as committed by effect verification.
	AmbiguousResolved int64
	// Outages counts commits given up after exhausting retries — each
	// opened (or re-opened) the member's breaker.
	Outages int64
	// QuarantineRejects counts batches fast-failed by an open breaker
	// or a pending journal entry, before any member commit.
	QuarantineRejects int64
	// PartialCommits counts batches stranded in the journal (the server
	// maps one to a 503 with reconciling:true and Reconcile resolves the
	// entry — TestWirePartialCommitAndManualReconcile).
	PartialCommits int64
	// CompensatedInline counts late local rejections fully undone
	// within the Ship call — the caller saw a plain rejection.
	CompensatedInline int64
	// ReconcileCompleted / ReconcileCompensated count journal entries
	// resolved by Reconcile in each mode.
	ReconcileCompleted   int64
	ReconcileCompensated int64
}

// FaultStats returns the engine's fault-handling counters.
func (e *Engine) FaultStats() FaultStats {
	return FaultStats{
		TransientFaults:      e.faults.transientFaults.Load(),
		Retries:              e.faults.retries.Load(),
		AmbiguousResolved:    e.faults.ambiguousResolved.Load(),
		Outages:              e.faults.outages.Load(),
		QuarantineRejects:    e.faults.quarantineRejects.Load(),
		PartialCommits:       e.faults.partialCommits.Load(),
		CompensatedInline:    e.faults.compensatedInline.Load(),
		ReconcileCompleted:   e.faults.reconCompleted.Load(),
		ReconcileCompensated: e.faults.reconCompensated.Load(),
	}
}

// commitWithRetry commits one member transaction, retrying transient
// failures with capped exponential backoff under the policy's elapsed
// budget. Before each retry the recorded effects are probed: a commit
// that applied before its failure was reported (fail-after-commit) is
// recognised there and treated as success instead of being re-run
// against a finished transaction.
func (e *Engine) commitWithRetry(ctx context.Context, b store.Backend, txn store.Txn, effs []store.Effect) error {
	pol := e.Retry.withDefaults()
	deadline := time.Now().Add(pol.MemberTimeout)
	delay := pol.BaseDelay
	for attempt := 1; ; attempt++ {
		err := txn.Commit()
		if err == nil {
			return nil
		}
		if !store.IsTransient(err) {
			return err
		}
		e.faults.transientFaults.Add(1)
		if store.Applied(b, effs) {
			// The commit applied before the failure was reported.
			e.faults.ambiguousResolved.Add(1)
			return nil
		}
		if attempt >= pol.MaxAttempts || time.Now().After(deadline) || ctx.Err() != nil {
			return err
		}
		e.faults.retries.Add(1)
		pol.Sleep(delay)
		delay *= 2
		if delay > pol.MaxDelay {
			delay = pol.MaxDelay
		}
	}
}

// compensateEntry undoes the committed prefix of a compensate-mode
// entry: each committed member gets the inverse of its recorded effects
// in a fresh transaction, retried like any commit. Reports whether
// every committed member has been compensated.
func (e *Engine) compensateEntry(ctx context.Context, ent *journalEntry) bool {
	done := true
	for _, member := range e.journal.committedPendingCompensation(ent) {
		b := ent.Backends[member]
		if err := b.Ping(); err != nil {
			e.journal.setErr(ent, err)
			done = false
			continue
		}
		inv := store.Inverse(ent.Intent.Effects[member])
		tx := b.Begin()
		if err := store.Stage(tx, inv...); err != nil {
			tx.Rollback()
			e.journal.setErr(ent, fmt.Errorf("compensation staging on %s: %w", member, err))
			done = false
			continue
		}
		// The undo's commit record carries the values it overwrites,
		// read from the member's committed state like Ship's record.
		for i := range inv {
			inv[i] = store.Capture(b, inv[i])
		}
		if err := e.commitLogged(ctx, 0, b, tx, inv); err != nil {
			if store.IsTransient(err) {
				e.health.outage(member, err)
			}
			e.journal.setErr(ent, fmt.Errorf("compensation commit on %s: %w", member, err))
			done = false
			continue
		}
		e.journal.markCompensated(ent, member)
		e.health.success(member)
	}
	return done
}

// ReconcileStats reports one Reconcile pass.
type ReconcileStats struct {
	// Completed counts entries whose remaining member commits landed
	// and whose batch was applied to the view.
	Completed int
	// Compensated counts entries whose committed prefix was undone.
	Compensated int
	// Probed counts quarantined members found healthy by the liveness
	// probe (breaker closed without write traffic).
	Probed int
	// Pending is the journal depth after the pass.
	Pending int
}

// Reconcile drives every pending journal entry as far as member health
// allows, in journal order: complete-mode entries re-commit (or verify)
// the retained member transactions and then apply the batch to the
// integrated view; compensate-mode entries undo the committed prefix.
// Members still down are left for the next pass. Quarantined members
// with no pending entries are liveness-probed so their breakers close
// without waiting for write traffic. Safe to call at any time — the
// server runs it on a background ticker, and callers that just saw a
// *PartialCommitError can call it after the hinted backoff. An entry
// counts as settled only once its records are synced, and the records
// of entries still pending are synced before the pass returns; a failed
// sync seals the log and leaves its entry pending for the restarted
// node's recovery.
func (e *Engine) Reconcile(ctx context.Context) (ReconcileStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer func() { _ = e.journal.sync() }()
	var rs ReconcileStats

	for _, ent := range e.journal.snapshotEntries() {
		if err := ctx.Err(); err != nil {
			rs.Pending = e.journal.depth()
			e.journal.noteReconcile(rs)
			return rs, err
		}
		switch e.journal.modeOf(ent) {
		case modeCompensate:
			if e.compensateEntry(ctx, ent) && e.settleCompensated(ent) {
				rs.Compensated++
			}
		default:
			done, err := e.completeEntry(ctx, ent)
			if err != nil {
				// The entry flipped to compensate mode (a local manager
				// rejected the retained transaction); undo what committed.
				if e.compensateEntry(ctx, ent) && e.settleCompensated(ent) {
					rs.Compensated++
				}
				continue
			}
			if done {
				e.faults.reconCompleted.Add(1)
				rs.Completed++
			}
		}
	}

	// Liveness-probe quarantined members with nothing pending. A sealed
	// log keeps every breaker open: no write could be made durable.
	if reg := e.stores.Load(); reg != nil && e.journal.sealed() == nil {
		for _, member := range e.health.openMembers() {
			if e.journal.pendingFor(member) > 0 {
				continue
			}
			if b, ok := reg.Get(member); ok && b.Ping() == nil {
				e.health.success(member)
				rs.Probed++
			}
		}
	}

	rs.Pending = e.journal.depth()
	e.journal.noteReconcile(rs)
	return rs, nil
}

// settleCompensated drops a fully compensated entry once its records
// are synced.
func (e *Engine) settleCompensated(ent *journalEntry) bool {
	if err := e.journal.sync(); err != nil {
		e.journal.setErr(ent, err)
		return false
	}
	e.journal.remove(ent)
	e.faults.reconCompensated.Add(1)
	return true
}

// completeEntry drives a complete-mode entry: every uncommitted member
// is probed, verified (fail-after-commit) or re-committed; once all
// members hold the batch it is resolved, synced and applied to the
// view. A permanent local rejection flips the entry to compensate mode
// and returns an error.
func (e *Engine) completeEntry(ctx context.Context, ent *journalEntry) (bool, error) {
	for _, member := range ent.Intent.Members {
		if e.journal.isCommitted(ent, member) {
			continue
		}
		b := ent.Backends[member]
		if err := b.Ping(); err != nil {
			e.journal.setErr(ent, err)
			return false, nil // still down; next pass
		}
		effs := ent.Intent.Effects[member]
		txn := ent.Txns[member]
		if store.Applied(b, effs) {
			// The original commit applied before its failure was
			// reported: nothing to re-run, only its record to write.
			txn = nil
		}
		err := e.commitLogged(ctx, ent.Wal, b, txn, effs)
		if err == nil {
			if txn == nil {
				e.faults.ambiguousResolved.Add(1)
			}
			e.journal.markCommitted(ent, member)
			e.health.success(member)
			continue
		}
		if store.IsTransient(err) {
			e.health.outage(member, err)
			e.journal.setErr(ent, err)
			return false, nil // down again; next pass
		}
		// The member's manager rejected the retained transaction (state
		// changed underneath it): completion is impossible.
		e.journal.compensate(ent, err)
		return false, err
	}
	e.journal.logResolve(ent, store.ResolveCommitted)
	if err := e.journal.sync(); err != nil {
		// A sealed log: the entry stays pending, and the restarted
		// node's recovery settles it from the records synced so far.
		e.journal.setErr(ent, err)
		return false, nil
	}
	e.journal.remove(ent)
	// An error here means committed locally everywhere but not
	// representable in the view — the same terminal condition
	// applyShipped reports on the healthy path. The entry is finished
	// either way.
	_ = e.applyShipped(ent.Applies)
	return true, nil
}

// HealthReport is the engine's fault-handling state: per-member breaker
// positions, the pending commit journal, and the last reconcile pass.
type HealthReport struct {
	// Healthy is true when every breaker is closed and the journal is
	// empty.
	Healthy bool
	// Degraded names the quarantined members (mirrors Stats.Degraded).
	Degraded []string
	Members  []MemberHealth
	// JournalDepth is the number of batches pending reconciliation.
	JournalDepth int
	Entries      []JournalEntryInfo
	// LastReconcile is when the last Reconcile pass finished (zero if
	// none has run); Reconciles counts the passes.
	LastReconcile      time.Time
	LastReconcileStats ReconcileStats
	Reconciles         int64
	Faults             FaultStats
}

// Health reports the engine's fault-handling state. Lock-free on the
// engine (the trackers have their own synchronisation), so it serves
// even while a Ship call holds the write lock mid-outage — exactly when
// operators ask.
func (e *Engine) Health() HealthReport {
	var names []string
	if reg := e.stores.Load(); reg != nil {
		names = reg.Names()
	}
	members := e.health.snapshot(names)
	for i := range members {
		members[i].PendingEntries = e.journal.pendingFor(members[i].Member)
	}
	last, lastStats, n := e.journal.lastReconcileInfo()
	rep := HealthReport{
		Degraded:           e.health.degradedMembers(),
		Members:            members,
		JournalDepth:       e.journal.depth(),
		Entries:            e.journal.info(),
		LastReconcile:      last,
		LastReconcileStats: lastStats,
		Reconciles:         n,
		Faults:             e.FaultStats(),
	}
	rep.Healthy = len(rep.Degraded) == 0 && rep.JournalDepth == 0
	return rep
}
